"""The count of settable values, pinned.

A settable value is one CLI option or positional argument of a subcommand
(``-h`` excluded), one field of a public dataclass, or one parameter of a
public function or method (``self``/``cls`` excluded), over the public
names of ``irsim``. A change that adds or removes one updates the number
here on purpose.
"""

import argparse
import dataclasses
import inspect

import irsim
from irsim import cli

# 178 over the public names of irsim plus 15 in the CLI. The CLI's 15 are
# optimize's --problem, --config and --out (3), and sweep's --experiment and
# reproduce's figure, each with --grid, --config, --seed, --out and --format
# (6 + 6). From 202: the scan command (-6), optimize's --format and --seed
# (-2) and the overrides of ScenarioConfig.default (-1).
SETTABLE_VALUES = 193


def _parameters(fn, bound: bool) -> int:
    return len(inspect.signature(fn).parameters) - bound


def _api_count(obj) -> int:
    if inspect.isfunction(obj):
        return _parameters(obj, False)
    if not inspect.isclass(obj):
        return 0
    count = len(dataclasses.fields(obj)) if dataclasses.is_dataclass(obj) else 0
    for name, member in vars(obj).items():
        if name.startswith("_"):
            continue
        if isinstance(member, classmethod):
            count += _parameters(member.__func__, True)
        elif isinstance(member, staticmethod):
            count += _parameters(member.__func__, False)
        elif inspect.isfunction(member):
            count += _parameters(member, True)
    return count


def _cli_count() -> int:
    parser = cli._parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return sum(
        not isinstance(action, argparse._HelpAction)
        for sub in commands.choices.values()
        for action in sub._actions
    )


def test_settable_value_count():
    api = sum(_api_count(getattr(irsim, name)) for name in dir(irsim) if not name.startswith("_"))
    options = _cli_count()
    assert api + options == SETTABLE_VALUES, (api, options)
