"""Exception hierarchy for input validation and contract failures."""


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


class DuplicateNodeId(TaxonetError):
    def __init__(self, node_id):
        super().__init__(f"duplicate node id: {node_id!r}")
        self.node_id = node_id


class UnknownNodeInEdge(TaxonetError):
    def __init__(self, child, parent):
        super().__init__(f"edge references unknown node: {child!r} -> {parent!r}")
        self.child = child
        self.parent = parent


class ForbiddenEdgeKind(TaxonetError):
    def __init__(self, child, parent, detail):
        super().__init__(f"forbidden edge kind ({detail}): {child!r} -> {parent!r}")
        self.child = child
        self.parent = parent


class SelfLoop(TaxonetError):
    def __init__(self, node_id):
        super().__init__(f"self-loop on node: {node_id!r}")
        self.node_id = node_id


class NonBijectiveLink(TaxonetError):
    def __init__(self, node_id):
        super().__init__(f"node appears in more than one interlanguage link: {node_id!r}")
        self.node_id = node_id


class ProjectedEdgeNotInGraph(TaxonetError):
    def __init__(self, child, parent):
        super().__init__(f"projected edge not present in graph: {child!r} -> {parent!r}")
        self.child = child
        self.parent = parent


class EmptyVocabulary(TaxonetError):
    """No feature survived the document-frequency threshold."""


class SingleClassDataset(TaxonetError):
    """Training split contains only one label class."""


class EmptyValidation(TaxonetError):
    """Validation set is empty."""


class EmptyProjectedTaxonomy(TaxonetError):
    """Induction requires a nonempty projected taxonomy."""


class EmptyGold(TaxonetError):
    """Gold edge set contains no sampled nodes."""


class EmptyPathSet(TaxonetError):
    """Annotated path set is empty."""


class EmptyTaxonomy(TaxonetError):
    """Operation requires a nonempty taxonomy."""


class InsufficientNodes(TaxonetError):
    def __init__(self, kind, requested, available):
        super().__init__(f"requested {requested} {kind} nodes, only {available} available")
        self.kind = kind
        self.requested = requested
        self.available = available
