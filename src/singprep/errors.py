"""Exception types shared across the toolkit.

Everything that means "the user's input is bad" derives from InputError so the
CLI can map it to exit code 2, as it does an unreadable or non-UTF-8 file; any
other exception is an internal error (exit code 1). InputError is a ValueError,
so code that catches ValueError around a constructor also catches it.
"""


class InputError(ValueError):
    """Malformed files, out-of-vocabulary tokens, invalid arguments."""


class ParseError(InputError):
    """A structured text file could not be parsed."""


class OovError(InputError):
    """A lyric token has no pronunciation in the lexicon."""

    def __init__(self, token: str, language: int):
        self.token = token
        self.language = language
        lang_name = "Mandarin" if language == 1 else "English"
        super().__init__(f"out-of-vocabulary {lang_name} token: {token!r}")


class ValidationError(InputError):
    """A document violates its schema; carries every failure, not just the first."""

    def __init__(self, failures):
        self.failures = list(failures)
        super().__init__("; ".join(self.failures))
