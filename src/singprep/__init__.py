"""singprep: bilingual singing-voice data preparation and evaluation.

Each name is imported from the module that defines it: lexicon (lyrics to
CMU phones), score (score transcoding, duration adaptation), textgrid,
annotation, melody and pseudo (pseudo-singing), dsp.audio, dsp.pitch and
dsp.vocoder (the signal layer), svc (conversion planning), metrics
(objective scores), jsonio, config and errors, and cli (the commands).
Only metrics, pseudo and the dsp modules load numpy.
"""

__version__ = "0.1.0"
