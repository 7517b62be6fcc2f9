"""The three exception classes: `TaxonetError` and its two file subclasses.

Every rejected input or broken contract raises one of them, and `cli.main`
treats them all alike: it prints the message and exits 2. No caller tells
one failure from another by its class, so each is a `TaxonetError` with
the message that says what went wrong. `MalformedRow` and `MalformedFile`
build their message from the file (and the line) they name, and keep
those as attributes (`path`, `line_no`, `reason`) for the tests that read
them.
"""


class TaxonetError(Exception):
    """Base class for all taxonet errors.

    Errors pickle as their type, message and attributes, so one raised in a
    forked child (see `taxonet.forking`) re-raises unchanged in the parent.
    The default pickling calls `cls(*self.args)`, which fails for a subclass
    whose parameters are not its message.
    """

    def __reduce__(self):
        return _restore, (type(self), self.args, self.__dict__)


def _restore(cls, args, state):
    exc = cls.__new__(cls)  # skips cls.__init__
    exc.args = args
    exc.__dict__.update(state)
    return exc


class MalformedRow(TaxonetError):
    def __init__(self, path, line_no, reason):
        super().__init__(f"{path}:{line_no}: {reason}")
        self.path = path
        self.line_no = line_no
        self.reason = reason


class MalformedFile(TaxonetError):
    def __init__(self, path, reason):
        super().__init__(f"{path}: {reason}")
        self.path = path
        self.reason = reason
