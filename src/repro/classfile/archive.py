"""Class archives: the simulator's equivalent of ``.jar`` files.

An archive maps class names to serialized class bytes.  The paper's
instrumentation tool "processes individual class files or archives of
class files" and was applied to ``rt.jar``; our static instrumenter does
the same over :class:`ClassArchive`.
"""

from __future__ import annotations

import struct
from pathlib import Path
from typing import Dict, Iterator, Union

from repro.classfile.classfile import ClassFile
from repro.classfile.serializer import dump_class, load_class, shared_class
from repro.errors import ClassFileError

ARCHIVE_MAGIC = b"RJAR"
ARCHIVE_VERSION = 1


class ClassArchive:
    """An ordered collection of serialized classes, keyed by class name."""

    def __init__(self):
        self._entries: Dict[str, bytes] = {}

    # -- container protocol -------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __iter__(self) -> Iterator[str]:
        return iter(self._entries)

    def names(self):
        """Class names in insertion order."""
        return list(self._entries)

    # -- content ------------------------------------------------------------

    def put_bytes(self, name: str, data: bytes) -> None:
        """Store serialized class bytes under ``name``."""
        self._entries[name] = data

    def get_bytes(self, name: str) -> bytes:
        """Raw serialized bytes for class ``name``."""
        try:
            return self._entries[name]
        except KeyError:
            raise ClassFileError(f"archive has no class {name!r}")

    def put_class(self, cf: ClassFile) -> None:
        """Serialize and store ``cf`` under its own name."""
        self.put_bytes(cf.name, dump_class(cf))

    def get_class(self, name: str) -> ClassFile:
        """Deserialize and return class ``name``: a fresh copy the
        caller may transform."""
        return _named(name, load_class(self.get_bytes(name)))

    def classes(self) -> Iterator[ClassFile]:
        """Iterate deserialized classes in insertion order."""
        for name in self._entries:
            yield self.get_class(name)

    def shared_classes(self) -> Iterator[ClassFile]:
        """Iterate the classes in insertion order, parsed through the
        process-wide memo (:func:`~repro.classfile.serializer.
        shared_class`): read-only, and the same objects every VM that
        loads these bytes links."""
        for name, data in self._entries.items():
            yield _named(name, shared_class(data))

    # -- persistence ----------------------------------------------------------

    def to_bytes(self) -> bytes:
        """Serialize the whole archive."""
        chunks = [ARCHIVE_MAGIC, struct.pack(">H", ARCHIVE_VERSION),
                  struct.pack(">I", len(self._entries))]
        for name, data in self._entries.items():
            encoded = name.encode("utf-8")
            chunks.append(struct.pack(">H", len(encoded)))
            chunks.append(encoded)
            chunks.append(struct.pack(">I", len(data)))
            chunks.append(data)
        return b"".join(chunks)

    @classmethod
    def from_bytes(cls, blob: bytes) -> "ClassArchive":
        """Deserialize an archive."""
        if blob[:4] != ARCHIVE_MAGIC:
            raise ClassFileError("bad magic: not a repro class archive")
        if len(blob) < 10:
            raise ClassFileError("truncated archive header")
        version = struct.unpack(">H", blob[4:6])[0]
        if version != ARCHIVE_VERSION:
            raise ClassFileError(
                f"unsupported archive version {version}")
        count = struct.unpack(">I", blob[6:10])[0]
        archive = cls()
        pos = 10
        for _ in range(count):
            if pos + 2 > len(blob):
                raise ClassFileError("truncated archive")
            name_len = struct.unpack(">H", blob[pos:pos + 2])[0]
            pos += 2
            try:
                name = blob[pos:pos + name_len].decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ClassFileError(
                    f"archive entry name is not utf-8: {exc}") from None
            pos += name_len
            if pos + 4 > len(blob):
                raise ClassFileError("truncated archive")
            data_len = struct.unpack(">I", blob[pos:pos + 4])[0]
            pos += 4
            data = blob[pos:pos + data_len]
            if len(data) != data_len:
                raise ClassFileError("truncated archive entry")
            pos += data_len
            archive.put_bytes(name, data)
        if pos != len(blob):
            raise ClassFileError("trailing bytes after archive")
        return archive

    def save(self, path: Union[str, Path]) -> None:
        """Write the archive to ``path``."""
        Path(path).write_bytes(self.to_bytes())

    @classmethod
    def load(cls, path: Union[str, Path]) -> "ClassArchive":
        """Read an archive from ``path``."""
        return cls.from_bytes(Path(path).read_bytes())


def _named(name: str, cf: ClassFile) -> ClassFile:
    """``cf``, checked to be the class its archive entry names."""
    if cf.name != name:
        raise ClassFileError(
            f"archive entry {name!r} contains class {cf.name!r}")
    return cf
