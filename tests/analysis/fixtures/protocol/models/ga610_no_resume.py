"""GA610: a coordinator that never resumes detached senders wedges the run."""
from repro.net.protocol_model import MigrationModel

MODELS = [MigrationModel(pre=1, post=1, no_resume=True)]
