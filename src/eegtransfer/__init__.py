"""Channel-attention EEG emotion features with contrastive transfer learning.

Pipeline: band-limited differential-entropy features -> diagonal-masked
channel-attention encoder with a frozen key/value stream -> contrastive
pretraining across subjects -> few-shot calibration to a new subject.
"""

from .augment import AugmentConfig, make_views, mask_channels, mixup
from .config import ModelConfig, RunConfig, SynthSpec, TrainConfig, load_run_config
from .data_io import (SampleBank, SplitProtocol, apply_split, gen_synthetic,
                      load_checkpoint, read_bank, save_checkpoint, write_bank)
from .dsp import (FeatureSample, RawTrial, bandpass, differential_entropy, extract_de,
                  lds_smooth, notch, stack_samples)
from .evaluation import EvalReport, connectivity, icd_ics, losocv
from .model import DtaParameters, classify, encode, init_parameters, project
from .montage import ChannelMontage, ChannelSubsetMap, default_montage, load_montage
from .losses import contrastive_loss, cosine_similarity, cross_entropy
from .training import (AdamState, CalibrationResult, PretrainResult, adam_step,
                       calibrate, predict, predict_batch, pretrain)

__version__ = "0.1.0"
