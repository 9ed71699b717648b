"""Word sense disambiguation from forgetting-encoded contexts.

A feed-forward pseudo language model is trained on unlabelled text over
fixed-size forgetting encodings of each word's surroundings; its held-out
layer turns labeled occurrences into context embeddings, and per-lemma
kNN classifiers with first-sense backoff predict senses. A labeled file is
read once into a columnar ``LabeledCorpus``, which the classifier store,
prediction and scoring take as it is.
"""

from .corpus import (
    LabeledCorpus,
    SenseInventory,
    Vocabulary,
    build_vocabulary,
    read_labeled_corpus,
    read_sense_inventory,
    tokenize_line,
)
from .errors import DataError, NumericalError, UsageError
from .evaluation import EvalReport, score
from .fofe import FofeConfig, context_code, decode, encode_left, encode_order, encode_right
from .lm import (
    LmConfig,
    LmModel,
    context_embeddings,
    load_checkpoint,
    save_checkpoint,
    train_lm,
    with_run_settings,
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
    "LabeledCorpus",
    "LmConfig",
    "LmModel",
    "NoClassifierError",
    "NumericalError",
    "SenseInventory",
    "UsageError",
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
    "with_run_settings",
]
