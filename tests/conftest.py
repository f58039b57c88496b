import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from helpers import speech_clip, write_clip_files  # noqa: E402

from singprep.lexicon import default_lexicon  # noqa: E402
from singprep.melody import load_melody_bank  # noqa: E402


@pytest.fixture(scope="session")
def lexicon():
    return default_lexicon()


@pytest.fixture(scope="session")
def bank():
    return load_melody_bank()


@pytest.fixture(scope="session")
def clip():
    """(Waveform, word_tier, phone_tier) for the synthetic 'song fan' clip."""
    return speech_clip()


@pytest.fixture(scope="session")
def clip_files(tmp_path_factory):
    """The same clip on disk: (wav_path, textgrid_path)."""
    d = tmp_path_factory.mktemp("clip")
    return write_clip_files(d)
