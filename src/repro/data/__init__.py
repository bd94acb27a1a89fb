"""Dataset substrate: data functions and dataset generators.

The paper evaluates over two datasets: a real gas-sensor calibration dataset
(R1) and a huge synthetic dataset generated from the Rosenbrock benchmark
function (R2).  The real dataset is not redistributable, so this subpackage
provides a surrogate generator with the same qualitative property — strong
non-linear dependencies among features so that a single global linear fit is
poor — together with the Rosenbrock generator and several analytic data
functions used in the paper's running examples.
"""

from .functions import (
    DataFunction,
    DriftingFunction,
    PiecewiseNonLinear1D,
    ProductSaddle,
    Rosenbrock,
    SineRidge,
    get_data_function,
)
from .synthetic import SyntheticDataset, make_function_dataset, make_rosenbrock_dataset
from .gas_sensor import generate_gas_sensor_dataset
from .scaling import MinMaxScaler, scale_to_unit_cube

__all__ = [
    "DataFunction",
    "Rosenbrock",
    "ProductSaddle",
    "SineRidge",
    "PiecewiseNonLinear1D",
    "DriftingFunction",
    "get_data_function",
    "SyntheticDataset",
    "make_function_dataset",
    "make_rosenbrock_dataset",
    "generate_gas_sensor_dataset",
    "MinMaxScaler",
    "scale_to_unit_cube",
]
