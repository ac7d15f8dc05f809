"""Solvent-aware HSQC cross-peak prediction and assignment.

Parse a SMILES, predict (carbon, proton) cross peaks with a
message-passing network conditioned on the solvent class, and align the
predictions to an unlabeled experimental peak list. Training is two-stage:
multi-task pre-training on 1D shift data, then iterative self-training on
unlabeled HSQC peak lists.
"""

from .assign import (
    GASettings,
    MatchSettings,
    MatchingError,
    ObservedPeak,
    PseudoLabel,
    PseudoLabels,
    graduated_assignment,
    hungarian,
    ingest_peaks,
    pseudo_annotate,
    shift_cost,
)
from .dataio import (
    Checkpoint,
    CheckpointError,
    DataFormatError,
    load_checkpoint,
    load_dataset,
    normalize_solvent,
    save_checkpoint,
    scan_dataset,
)
from .evaluate import (
    EvalReport,
    evaluate,
    export_overlay,
    segment_report,
)
from .model import (
    CrossPeakModel,
    ModelConfig,
    Molecule,
    PredictedPeak,
    SolventClass,
    count_parameters,
    prepare_molecule,
)
from .molgraph import (
    AtomSpec,
    BondDirection,
    BondSpec,
    BondType,
    CHUnit,
    Chirality,
    EquivalenceClasses,
    Hybridization,
    MolecularGraph,
    add_explicit_hydrogens,
    canonical_equivalence_classes,
    enumerate_ch_units,
    molecular_weight,
    set_hybridization,
)
from .smiles import SmilesParseError, canonical_smiles, parse_smiles
from .train import (
    AnnotatedTestRecord,
    ConvergenceError,
    FinetuneResult,
    Sample1D,
    SampleHSQC,
    TrainConfig,
    TrainResult,
    finetune_unsupervised,
    masked_mtt_loss,
    mtt_pretrain,
)

__version__ = "0.1.0"
