"""Finite groups as Cayley tables, their non-commuting graphs, canonical
graph certificates, and mechanical audits of the order-equality claims those
graphs support."""

from .errors import (
    AbelianInput,
    BadDescriptor,
    CapExceeded,
    CayParseError,
    Error,
    IndexOutOfRange,
    InternalInconsistency,
    NoIdentity,
    NotAnIsomorphism,
    NotAssociative,
    NotASubgroup,
    NotClosed,
    NotLatin,
    NotNilpotent,
    OrderOverflow,
    Overflow,
    PrimeMismatch,
    RegularGraph,
    WrongShape,
)
from .cayley import (
    DEFAULT_ORDER_CAP,
    CayleyTable,
    CentralizerData,
    SylowFactor,
    center,
    centralizer,
    centralizer_data,
    centralizer_size,
    conjugacy_classes,
    has_uniform_class_sizes,
    induced_group,
    is_ac_group,
    is_nilpotent,
    prime_factorization,
    sylow_decomposition,
    upper_central_series,
    validate,
)
from .descriptors import (
    GroupDescriptor,
    construct,
    descriptor_order,
    parse_descriptor,
)
from .graphs import (
    NcGraph,
    build_nc_graph,
    relabeled,
)
from .canon import (
    Isomorphism,
    canonical_order,
    certificate,
    degree_profile,
    find_isomorphism,
)
from .audits import (
    AuditItem,
    CentralizerChain,
    CentralizerWitness,
    CrossPrimeScan,
    PairAudit,
    SamePrimeAudit,
    TwoSylowAudit,
    audit_isomorphic_pair,
    centralizer_chain,
    cross_prime_scan,
    large_centralizer_witness,
    same_prime_audit,
    two_nonabelian_sylow_audit,
)
from .repunits import (
    DEFAULT_MAX_BITS,
    RepunitSolution,
    goormaghtigh_search,
    repunit,
)
from .cayfile import (
    export_group,
    format_group,
    import_group,
    parse_group,
)
from .catalog import (
    DEFAULT_FAMILIES,
    CatalogConfig,
    CatalogEntry,
    CertificateCache,
    IsoClass,
    ScanReport,
    audit_pair_files,
    enumerate_catalog,
    scan_pairs,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "Error", "NotClosed", "NoIdentity", "NotLatin", "NotAssociative",
    "BadDescriptor", "IndexOutOfRange", "OrderOverflow", "NotASubgroup",
    "AbelianInput", "NotNilpotent", "NotAnIsomorphism", "WrongShape",
    "RegularGraph", "PrimeMismatch", "Overflow", "CapExceeded",
    "CayParseError", "InternalInconsistency",
    # groups
    "DEFAULT_ORDER_CAP", "CayleyTable", "SylowFactor",
    "validate", "center", "centralizer", "centralizer_size",
    "CentralizerData", "centralizer_data",
    "conjugacy_classes", "upper_central_series", "is_nilpotent",
    "induced_group", "is_ac_group", "has_uniform_class_sizes",
    "prime_factorization", "sylow_decomposition",
    # descriptors
    "GroupDescriptor", "parse_descriptor", "descriptor_order", "construct",
    # graphs
    "NcGraph", "build_nc_graph", "relabeled",
    # canonical labeling
    "canonical_order", "certificate", "degree_profile", "Isomorphism",
    "find_isomorphism",
    # audits
    "AuditItem", "PairAudit", "audit_isomorphic_pair",
    "CentralizerChain", "centralizer_chain",
    "CentralizerWitness", "large_centralizer_witness",
    "SamePrimeAudit", "same_prime_audit",
    "TwoSylowAudit", "two_nonabelian_sylow_audit", "CrossPrimeScan",
    "cross_prime_scan",
    # repunits
    "DEFAULT_MAX_BITS", "repunit", "RepunitSolution", "goormaghtigh_search",
    # .cay files
    "format_group", "export_group", "parse_group", "import_group",
    # catalog
    "DEFAULT_FAMILIES", "CatalogConfig", "CatalogEntry", "CertificateCache",
    "enumerate_catalog", "IsoClass", "ScanReport", "scan_pairs",
    "audit_pair_files",
]
