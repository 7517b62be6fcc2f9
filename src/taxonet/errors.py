"""The three exception classes: `TaxonetError` and its two file subclasses.

Every rejected input or broken contract raises one of them, and `cli.main`
treats them all alike: it prints the message and exits 2. No caller tells
one failure from another by its class, so each is a `TaxonetError` with
the message that says what went wrong. `MalformedRow` and `MalformedFile`
keep the file (and the line) they name and the reason as their `args` and
attributes (`path`, `line_no`, `reason`), and build their message from
them in `__str__`. Since `args` are the constructor's parameters, Python's
default pickling rebuilds every error, so one raised in a forked child
(see `taxonet.forking`) re-raises unchanged in the parent.
"""


class TaxonetError(Exception):
    """Base class for all taxonet errors."""


class MalformedRow(TaxonetError):
    def __init__(self, path, line_no, reason):
        super().__init__(path, line_no, reason)
        self.path, self.line_no, self.reason = path, line_no, reason

    def __str__(self):
        return f"{self.path}:{self.line_no}: {self.reason}"


class MalformedFile(TaxonetError):
    def __init__(self, path, reason):
        super().__init__(path, reason)
        self.path, self.reason = path, reason

    def __str__(self):
        return f"{self.path}: {self.reason}"
