import inspect
import pickle

import numpy as np
import pytest

from diffeo2d import (
    AtlasState,
    DisplacementField,
    Grid,
    LabelImage,
    LogField,
    RootChain,
    ScalarImage,
    atlas_step,
    compose,
    dice,
    dice_report,
    encode,
    errors,
    field_rms_diff,
    fit_basis,
    icon_loss,
    make_subject,
    pixelwise_mean_atlas,
    register_pair,
    sim_loss,
    warp_image,
    warp_labels,
)
from diffeo2d.registration import frozen_loss_and_grad

EXCEPTIONS = sorted(
    (cls for _, cls in inspect.getmembers(errors, inspect.isclass)
     if issubclass(cls, BaseException) and cls.__module__ == errors.__name__),
    key=lambda cls: cls.__name__,
)

# Arguments of the classes whose constructors take more than a message; any
# other class that did would fail to construct below.
EXTRA_ARGS = {
    errors.RankError: {"rank": 2},
    errors.PgmParseError: {"offset": 17},
    errors.ConvergenceError: {"residual": 0.25, "iterations": 40, "index": 3},
}


@pytest.mark.parametrize("cls", EXCEPTIONS, ids=lambda cls: cls.__name__)
def test_exception_survives_pickle(cls):
    # A worker process hands its failures to the caller through pickle.
    err = cls("bad input", **EXTRA_ARGS.get(cls, {}))
    copy = pickle.loads(pickle.dumps(err))
    assert type(copy) is cls
    assert str(copy) == str(err)
    assert copy.args == err.args
    for name in ("rank", "offset", "residual", "iterations", "index"):
        assert getattr(copy, name, None) == getattr(err, name, None)
    assert vars(copy) == vars(err)



@pytest.mark.parametrize("index", [None, 0, 5])
def test_convergence_error_within_keeps_its_numbers(index):
    # A failure inside a larger solve is reported with the larger solve's
    # prefix and the inner failure's residual and iterations.
    inner = errors.ConvergenceError("square root did not converge", residual=0.5,
                                    iterations=7, index=2)
    outer = inner.within("root chain failed at level 3", index)
    assert type(outer) is errors.ConvergenceError
    assert str(outer) == "root chain failed at level 3: square root did not converge"
    assert (outer.residual, outer.iterations, outer.index) == (0.5, 7, index)
    copy = pickle.loads(pickle.dumps(outer))
    assert (str(copy), copy.residual, copy.iterations, copy.index) == (
        str(outer), 0.5, 7, index)


@pytest.mark.parametrize("name, value, minimum, maximum, message", [
    ("n", 0, 1, None, "n must be >= 1, got 0"),
    ("n", np.int64(-2), 0, 5, "n must be >= 0, got -2"),
    ("n", 6, None, 5, "n must be <= 5, got 6"),
    ("n", 2.5, 1, None, "n must be an integer, got 2.5"),
    ("n", np.float64(3.0), None, None, f"n must be an integer, got {np.float64(3.0)!r}"),
    # Unnamed, as the CLI's parser types check a flag it names itself.
    (None, 1100, 1, 1023, "must be <= 1023, got 1100"),
])
def test_check_integer_names_the_bound_and_the_value(name, value, minimum, maximum, message):
    with pytest.raises(errors.DomainError) as info:
        errors.check_integer(name, value, minimum, maximum)
    assert str(info.value) == message


@pytest.mark.parametrize("value, minimum, maximum", [
    (1, 1, None), (5, 0, 5), (np.int32(-7), None, None), (0, 0, 0),
])
def test_check_integer_accepts_its_range(value, minimum, maximum):
    errors.check_integer("n", value, minimum, maximum)


# Two grids and a field, an image, a label map and a log on each.
A, B = Grid(8, 8), Grid(8, 6)


def _on(grid, value=0.5):
    shape = grid.shape
    return (DisplacementField(grid, np.full(shape + (2,), value)),
            ScalarImage(grid, np.linspace(0.0, 1.0, grid.n_pixels).reshape(shape)),
            LabelImage(grid, np.ones(shape, dtype=np.int64)),
            LogField(grid, np.full(shape + (2,), value)))


(FA, IA, LA, VA), (FB, IB, LB, VB) = _on(A), _on(B)
BASIS_A = fit_basis([VA, _on(A, -0.25)[3]], 1)
MISMATCHES = {
    "compose": lambda: compose(FA, FB),
    "warp_image": lambda: warp_image(IA, FB),
    "warp_labels": lambda: warp_labels(LA, FB),
    "field_rms_diff": lambda: field_rms_diff(FA, FB),
    "icon_loss": lambda: icon_loss(FA, FB),
    "sim_loss": lambda: sim_loss(IA, IB, FA, FA),
    "register_pair": lambda: register_pair(IA, IB),
    "atlas_step": lambda: atlas_step(AtlasState(IA), [IA, IB]),
    "pixelwise_mean_atlas": lambda: pixelwise_mean_atlas([IA, IB]),
    "fit_basis": lambda: fit_basis([VA, VB], 1),
    "encode": lambda: encode(BASIS_A, VB),
    "reconstruction_rms": lambda: RootChain([FA]).reconstruction_rms(FB),
    "dice": lambda: dice(LA, LB, 1),
    "dice_report": lambda: dice_report(LA, LB),
    "make_subject": lambda: make_subject((IA, LA), VB),
    "frozen_loss_and_grad": lambda: frozen_loss_and_grad(IA, IB, FA.u, FA.u, 1.0, 1.0),
}


@pytest.mark.parametrize("call", MISMATCHES.values(), ids=MISMATCHES.keys())
def test_every_grid_mismatch_is_one_shape_error(call):
    # Each goes through fields._check_same_grid, in either order.
    with pytest.raises(errors.ShapeError) as info:
        call()
    assert str(info.value) in (f"grid mismatch: {A} vs {B}", f"grid mismatch: {B} vs {A}")
