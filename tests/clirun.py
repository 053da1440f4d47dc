"""Run `heavecast.cli.main` in this process and keep what it printed."""

import io
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass

from heavecast.cli import main


@dataclass(frozen=True)
class Result:
    exit_code: int
    stdout: str
    stderr: str
    output: str  # stdout and stderr interleaved in the order written


class _Tee(io.StringIO):
    """A text buffer that also writes everything into a shared one."""

    def __init__(self, shared: io.StringIO):
        super().__init__()
        self.shared = shared

    def write(self, text: str) -> int:
        self.shared.write(text)
        return super().write(text)


def invoke(args: list[str]) -> Result:
    """The exit code and printed text of `heavecast ARGS`.

    main ends in SystemExit, as the program does; any other exception is
    raised to the caller, so a stage that would print a traceback fails the
    test that ran it.
    """
    shared = io.StringIO()
    out, err = _Tee(shared), _Tee(shared)
    code = 0
    with redirect_stdout(out), redirect_stderr(err):
        try:
            main(args, prog_name="heavecast")
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    return Result(code, out.getvalue(), err.getvalue(), shared.getvalue())
