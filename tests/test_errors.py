"""Exception hierarchy guarantees."""

import inspect

import pytest

import repro.errors as errors_module
from repro.errors import (
    ConfigError,
    DeviceError,
    FilesystemError,
    FileNotFoundFsError,
    FtlError,
    NandError,
    OutOfSpaceError,
    RecoveryError,
    ReproError,
    UnmappedReadError,
)


class TestHierarchy:
    def test_every_library_error_derives_from_repro_error(self):
        for name, obj in inspect.getmembers(errors_module, inspect.isclass):
            if issubclass(obj, Exception):
                assert issubclass(obj, ReproError), name

    def test_subsystem_grouping(self):
        assert issubclass(OutOfSpaceError, FtlError)
        assert issubclass(UnmappedReadError, FtlError)
        assert issubclass(FileNotFoundFsError, FilesystemError)
        assert issubclass(RecoveryError, DeviceError)

    def test_single_catch_covers_everything(self):
        with pytest.raises(ReproError):
            raise ConfigError("x")
        with pytest.raises(ReproError):
            raise NandError("y")

    def test_errors_carry_messages(self):
        try:
            raise OutOfSpaceError("no free blocks")
        except ReproError as exc:
            assert "no free blocks" in str(exc)
