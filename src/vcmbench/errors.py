"""Exception hierarchy.

Every error raised by the harness derives from VcmError. InputError covers
bad files, bad arguments, and contract violations (CLI exit code 2);
ExternalToolError covers failures of user-supplied codec/prediction
commands (CLI exit code 3). A file or directory that cannot be read or
written raises the plain OSError from the call that touched it; the CLI
maps every OSError to exit code 2.

A subclass exists only where a caller needs more than the base class and
the message: it carries data, it is caught by type, or its name reaches
an output. Everything else raises InputError or ExternalToolError itself.
The kept classes:
    ParseError          carries the 1-based line
    InvariantViolation  carries the record index; tensorio catches it
    CorruptStream       caught by type: a damaged payload never passes
    DegenerateCurve,
    NoOverlap           report.json's bd_table names them in its errors
    CommandFailed       carries the argv and the captured stderr
    StageError          carries its (stage, item, qp, scale) context;
                        run_experiment catches it
"""


class VcmError(Exception):
    """Base class for all harness errors."""

    exit_code = 2


class InputError(VcmError):
    """Invalid input file, argument, or contract violation."""


class ExternalToolError(VcmError):
    """An external command failed or misbehaved."""

    exit_code = 3


# --- core model / file formats ---

class ParseError(InputError):
    """Malformed record; carries the 1-based line number."""

    def __init__(self, message, line=None):
        super().__init__(message)
        self.line = line


class InvariantViolation(InputError):
    """Record violates a type invariant; carries the 0-based record index."""

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


# --- rate-distortion analysis ---

class NoOverlap(InputError):
    pass


class DegenerateCurve(InputError):
    pass


# --- feature codec ---

class CorruptStream(InputError):
    pass


# --- pipeline ---

class CommandFailed(ExternalToolError):
    """External command exited nonzero; carries argv and captured stderr."""

    def __init__(self, message, argv=None, stderr=None):
        super().__init__(message)
        self.argv = argv
        self.stderr = stderr


class StageError(VcmError):
    """Wraps a per-stage pipeline failure with (item, qp, scale) context."""

    def __init__(self, stage, item_id, qp, scale, cause):
        super().__init__(
            f"{stage} failed for item={item_id!r} qp={qp} scale={scale}: {cause}"
        )
        self.stage = stage
        self.item_id = item_id
        self.qp = qp
        self.scale = scale
        self.cause = cause
        self.exit_code = getattr(cause, "exit_code", 2)
