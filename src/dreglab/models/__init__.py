from .params import (
    ParamVector,
    build_params,
    load_checkpoint,
    perturb_params,
    save_checkpoint,
)
from .toy import Toy, toy_optimal_inference
from .vae import Vae

__all__ = [
    "ParamVector",
    "build_params",
    "load_checkpoint",
    "perturb_params",
    "save_checkpoint",
    "Toy",
    "toy_optimal_inference",
    "Vae",
]
