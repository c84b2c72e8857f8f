"""Exception types shared across the toolkit."""


class AvmirError(Exception):
    """Base class for toolkit errors."""


class InputError(AvmirError):
    """Bad user input: missing files, malformed formats, invalid flags.

    The CLI maps this (and ValueError/OSError) to exit code 2.
    """


class WavFormatError(InputError):
    """Malformed or unsupported WAV payload; names the file and the byte offset."""

    def __init__(self, path, message, byte_offset):
        super().__init__(f"{path}: {message} (byte offset {byte_offset})")
        self.path, self.reason, self.byte_offset = path, message, byte_offset

    def __reduce__(self):
        # --jobs worker processes send the error back pickled
        return type(self), (self.path, self.reason, self.byte_offset)


class ArffFormatError(InputError):
    """Malformed ARFF header or data row; names the file and the line number."""

    def __init__(self, path, message, line_number):
        super().__init__(f"{path}: {message} (line {line_number})")
        self.path, self.reason, self.line_number = path, message, line_number

    def __reduce__(self):
        return type(self), (self.path, self.reason, self.line_number)
