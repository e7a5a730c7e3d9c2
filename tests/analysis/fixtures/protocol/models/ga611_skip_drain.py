"""GA611: fencing before the DETACH marker arrives strands in-flight items."""
from repro.net.protocol_model import MigrationModel

MODELS = [MigrationModel(pre=2, post=1, skip_drain=True)]
