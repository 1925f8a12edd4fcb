"""hesselab: curvature, transport-regularity, and flow experiments for
tube-domain metrics of convex potentials."""

from .certificates import SignCertificate
from .domains import DomainSpec
from .jets import PotentialJet, fd_jet
from .potentials import GridPotential, PotentialHandle, catalog, catalog_entries

__all__ = [
    "SignCertificate",
    "DomainSpec",
    "PotentialJet",
    "fd_jet",
    "PotentialHandle",
    "GridPotential",
    "catalog",
    "catalog_entries",
]

__version__ = "0.1.0"
