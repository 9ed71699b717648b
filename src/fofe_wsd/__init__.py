"""Word sense disambiguation from forgetting-encoded contexts.

A feed-forward pseudo language model is trained on unlabelled text over
fixed-size forgetting encodings of each word's surroundings; its held-out
layer turns labeled occurrences into context embeddings, and per-lemma
kNN classifiers with first-sense backoff predict senses.
"""

from .corpus import (
    LabeledInstance,
    SenseInventory,
    Vocabulary,
    build_vocabulary,
    read_labeled_corpus,
    read_sense_inventory,
    tokenize_line,
)
from .errors import DataError, NumericalError
from .evaluation import EvalReport, score
from .fofe import FofeConfig, context_code, decode, encode_left, encode_order, encode_right
from .lm import (
    LmConfig,
    LmModel,
    context_embeddings,
    load_checkpoint,
    save_checkpoint,
    train_lm,
)
from .wsd import (
    ClassifierConfig,
    ClassifierStore,
    NoClassifierError,
    build_classifier_store,
    build_sense_embeddings,
    load_store,
    predict_all,
    predict_cosine,
    predict_knn,
    save_store,
)

__version__ = "0.1.0"

__all__ = [
    "ClassifierConfig",
    "ClassifierStore",
    "DataError",
    "EvalReport",
    "FofeConfig",
    "LabeledInstance",
    "LmConfig",
    "LmModel",
    "NoClassifierError",
    "NumericalError",
    "SenseInventory",
    "Vocabulary",
    "build_classifier_store",
    "build_sense_embeddings",
    "build_vocabulary",
    "context_code",
    "context_embeddings",
    "decode",
    "encode_left",
    "encode_order",
    "encode_right",
    "load_checkpoint",
    "load_store",
    "predict_all",
    "predict_cosine",
    "predict_knn",
    "read_labeled_corpus",
    "read_sense_inventory",
    "save_checkpoint",
    "save_store",
    "score",
    "tokenize_line",
    "train_lm",
]
