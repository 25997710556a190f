"""Command-line pipeline: generate sequences, simulate, fit, reconstruct,
witness, and pulse sweeps.

Subcommands: ``pipeline``, ``gen-sequences``, ``simulate``, ``fit``,
``reconstruct``, ``witness``, ``pulse-scan``.  Each stage is one function
that takes its inputs in memory and writes its artifacts.  ``fit``,
``reconstruct`` and ``witness``, the commands that need an earlier stage's
artifacts, reread them from ``--stage-input`` (defaulting to the output
directory; no other command takes the flag) and call their stage function:
``fit`` and ``witness`` rebuild the ``Experiment`` from ``dataset.csv``, and
``reconstruct`` reads the ``bootstrap.npz`` that ``fit`` wrote instead of
refitting.  ``pipeline`` calls the same stage functions in order and hands
the simulated ``Experiment`` and the bootstrap over in memory.

``dataset.csv`` is written and read through one rendering: each row's
``role,j,n,tuple_id,`` prefix before each of its tails ``bin_id,mean`` + line
end.  It is read in byte blocks cut after whole rows; a block is accepted when
rendering the design's rows with the block's own mean texts, and the line end
that follows the header (CRLF or LF), reproduces its bytes, and its means are
then converted with numpy.  From the first block that is not, the rest of the
file is read line by line, which accepts other valid spellings and names the
faulty line.  Row ``k`` of the file must be row ``k`` of the design the
configuration implies, built from the same sequence sets as
``sequences.json``, so a missing, extra, reordered or renamed row is rejected
with its line.  The same pass hashes the bytes, and ``fit`` stamps
``bootstrap.npz`` with that digest.
Exit codes: 0 success, 2 configuration or artifact schema error, 3 numerical
failure (a main or split-half point fit that did not converge, or an
ill-conditioned null-operation estimate), 4 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import sys
import zipfile
import zlib
from dataclasses import replace
from functools import lru_cache, partial
from pathlib import Path

import numpy as np

from .config import ConfigError, RunConfig
from .fitting import FitResult, decay_to_overlap
from .pauli import avg_fidelity, superop_to_list
from .pipeline import (
    N_OVERLAPS,
    Experiment,
    ExperimentBootstrap,
    build_reconstruction,
    experiment_bootstrap,
    experiment_design,
    percentile_ci,
    qpt_point_estimate,
    qpt_witness_report,
    rbt_witness_report,
    resolve_target,
    simulate_experiment,
    split_half_bootstrap,
    summary_table,
)
# perfbench/tracer.py wraps cli.reconstruct_unital, so the name stays here.
from .reconstruction import (  # noqa: F401
    ChannelInversionError,
    Reconstruction,
    hinton_records,
    reconstruct_unital,
)
from .sampling import QptDataset, lay_out, sample_qpt_dataset
# perfbench/tracer.py wraps cli.exhaustive_set, so the name stays here.
from .sequences import INFINITE, exhaustive_set  # noqa: F401
from .witness import WitnessReport

__all__ = ["main"]

DATASET_HEADER = ("role", "j", "n", "tuple_id", "bin_id", "mean")

# FitResult's point-fit fields, stored in bootstrap.npz with these dtypes.
FIT_FIELDS = {
    "rate": np.float64,
    "ref_rate": np.float64,
    "scale": np.float64,
    "offset": np.float64,
    "objective": np.float64,
    "converged": np.bool_,
    "degenerate_seed": np.bool_,
}


class NumericalError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# Serialization helpers (deterministic bytes: sorted keys, repr floats)


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")


def _format_length(n) -> str:
    return "inf" if math.isinf(n) else str(int(n))


def _parse_length(text: str):
    return INFINITE if text == "inf" else int(text)


def _json_int_list(count: int, indent: int) -> str:
    """%-template of a non-empty list of ``count`` ints at ``indent`` in the
    ``json.dumps(indent=1)`` layout."""
    item = " " * (indent + 1) + "%d"
    return "[\n" + ",\n".join([item] * count) + "\n" + " " * indent + "]"


@lru_cache(maxsize=None)
def _sequence_template(n_compiled: int, n_randomizers: int) -> str:
    """%-template of one sequences.json entry: compiled ints, n (a JSON
    string), randomizer ints, repeat."""
    return (
        "    {\n"
        f'     "compiled": {_json_int_list(n_compiled, 5)},\n'
        '     "n": %s,\n'
        f'     "randomizers": {_json_int_list(n_randomizers, 5)},\n'
        '     "repeat": %d\n'
        "    }"
    )


def _write_sequences_json(path: Path, cfg: RunConfig) -> None:
    """Write sequences.json with the bytes of ``json.dumps(payload, indent=1,
    sort_keys=True) + "\n"``, rendered straight from the sequence sets.

    The payload is ``{"config_hash", "datasets", "seed"}``, each dataset
    ``{"j", "role", "sequences"}`` and each sequence ``{"compiled", "n",
    "randomizers", "repeat"}``, with ``n`` spelled as in dataset.csv.
    """
    name, unitary = resolve_target(cfg.target_spec())
    design = experiment_design(name, unitary is not None, cfg.lengths(), cfg.repeats())
    with path.open("w") as f:
        f.write(f'{{\n "config_hash": {json.dumps(cfg.config_hash())},\n "datasets": [')
        for k, (role, _j, _label, seqs) in enumerate(design):
            n_texts = {n: json.dumps(_format_length(n)) for n in seqs.lengths}
            items = ",\n".join(
                _sequence_template(len(s.compiled), len(s.randomizers))
                % (*s.compiled, n_texts[s.length], *s.randomizers, s.repeat)
                for s in seqs.sequences
            )
            f.write(
                f'{"," if k else ""}\n  {{\n   "j": {json.dumps(seqs.basis_index)},\n'
                f'   "role": {json.dumps(role)},\n   "sequences": [\n{items}\n   ]\n  }}'
            )
        f.write(f'\n ],\n "seed": {json.dumps(cfg.seed)}\n}}\n')


_BLOCK_BYTES = 1 << 18  # dataset.csv is read in blocks of about this size
_EOLS = {",".join(DATASET_HEADER).encode() + eol: eol for eol in (b"\r\n", b"\n")}
# _LOW_BYTES[k] keeps the first k bytes of a little-endian 8-byte word.
_LOW_BYTES = np.array([(1 << 8 * k) - 1 for k in range(9)], dtype=np.uint64)
_MEAN_CHARS = b"0123456789.eE+-"
# Odd multipliers that spread the words of a mean text's key, and keys over slots.
_KEY_MIX = np.array([0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F, 0x165667B19E3779F9], np.uint64)
_SLOT_BITS = 12  # _Tails slots: 4,096, against the 101 means of 100-shot bins
_PAD = bytes(24)  # room to read three 8-byte words of the last mean text


def _slots(key: np.ndarray) -> np.ndarray:
    return (key * _KEY_MIX[0]) >> np.uint64(64 - _SLOT_BITS)


class _Tails:
    """Each distinct mean's tails ``bin_id,mean`` + line end, one per bin id
    of a row, formatted once per file.  A mean is known by a 64-bit key: its
    bit pattern when writing, its text's length and first bytes when reading.
    :meth:`find` looks keys up in a table of 2**_SLOT_BITS slots, one key per
    slot, and in ``rows`` for a key whose slot another key holds."""

    def __init__(self, nb: int, eol: bytes):
        self.nb, self.eol, self.rows = nb, eol, {}
        self.table = np.empty((0, nb), dtype=object)
        self.slot_key = np.zeros(1 << _SLOT_BITS, np.uint64)
        self.slot_row = np.full(1 << _SLOT_BITS, -1)

    def find(self, key: np.ndarray, spell):
        """The table row of each key.  For keys not in the table yet,
        ``spell(lines)`` gives the mean texts of ``key[lines]``, one line per
        new key, or None to give up, and then ``find`` returns None."""
        slot = _slots(key)
        ids = np.where(self.slot_key[slot] == key, self.slot_row[slot], -1)
        miss = np.flatnonzero(ids < 0)
        if len(miss):
            keys, first, inverse = np.unique(key[miss], return_index=True, return_inverse=True)
            found = np.array([self.rows.get(k, -1) for k in keys.tolist()])
            new = found < 0
            if new.any():
                texts = spell(miss[first[new]])
                if texts is None:
                    return None
                found[new] = self._add(keys[new], texts)
            ids[miss] = found[inverse]
        return ids

    def _add(self, keys: np.ndarray, texts) -> np.ndarray:
        rows = np.arange(len(self.rows), len(self.rows) + len(keys))
        self.rows.update(zip(keys.tolist(), rows.tolist()))
        for slot, key, row in zip(_slots(keys), keys, rows):
            if self.slot_row[slot] < 0:
                self.slot_key[slot], self.slot_row[slot] = key, row
        new = [[b"%d,%s%s" % (b, text, self.eol) for b in range(self.nb)] for text in texts]
        self.table = np.concatenate([self.table, np.array(new, dtype=object).reshape(-1, self.nb)])
        return rows

    def take(self, rows: np.ndarray) -> np.ndarray:
        """The tails of whole rows of lines, line ``i`` (bin ``i % nb``)
        spelling the mean of table row ``rows[i]``."""
        return self.table.take(rows.reshape(-1, self.nb) * self.nb + np.arange(self.nb))


def _render(prefixes: list, tails) -> bytes:
    """dataset.csv rows, ``prefix + prefix.join(row)`` for each row's prefix
    ``role,j,n,tuple_id,`` and row of tails ``bin_id,mean`` + line end."""
    return b"".join([prefix + prefix.join(row) for prefix, row in zip(prefixes, tails)])


def _write_bin_lines(f, prefixes: list, bins: np.ndarray, tails: _Tails) -> None:
    """Write the :func:`_render` rows of ``bins``, about 64 rows per write,
    each mean spelled ``repr(mean)``.  ``tails`` tells means apart by bit
    pattern, so ``-0.0`` keeps its own ``repr``."""
    key = np.ascontiguousarray(bins, dtype=float).view(np.uint64).ravel()
    ids = tails.find(key, lambda lines: [repr(m).encode() for m in key[lines].view(float).tolist()])
    row_tails = tails.take(ids)
    for i in range(0, len(prefixes), 64):
        f.write(_render(prefixes[i : i + 64], row_tails[i : i + 64].tolist()))


_QPT_ROWS = 12  # tomography rows: 4 input states x 3 observables


def _has_qpt(cfg: RunConfig, exp: Experiment) -> bool:
    """Whether the run has the 12 tomography rows: QPT on, a non-null target."""
    return cfg.raw["qpt"]["enabled"] and exp.target_unitary is not None


def _row_prefixes(exp: Experiment, qpt: bool):
    """Yield the ``role,j,n,tuple_id`` prefix of every dataset.csv row, one
    list per block of rows in file order: each decay dataset's length groups
    in the order of its ``lengths()``, then the 12 tomography rows when
    ``qpt``."""
    for (_role, j), ds in exp.decays.items():
        for n in ds.lengths():
            head = f"{ds.label},{'' if j is None else j},{_format_length(n)},"
            yield [head + row_id for row_id in ds.groups[n].row_ids]
    if qpt:
        yield [f"qpt,{r},1,row{r}" for r in range(_QPT_ROWS)]


def _write_dataset_csv(path: Path, exp: Experiment, qpt: QptDataset | None) -> None:
    """One line per bin, the rows of :func:`_row_prefixes` (see README,
    "``dataset.csv`` format")."""
    tails = _Tails(exp.reference.shots // exp.reference.bin_size, b"\r\n")
    blocks = [ds.groups[n].bins for ds in exp.decays.values() for n in ds.lengths()]
    blocks += [] if qpt is None else [qpt.bins]
    with path.open("wb") as f:
        f.write(",".join(DATASET_HEADER).encode() + b"\r\n")
        for prefixes, bins in zip(_row_prefixes(exp, qpt is not None), blocks, strict=True):
            _write_bin_lines(f, [f"{prefix},".encode() for prefix in prefixes], bins, tails)


def _line_runs(lines, first: int, where):
    """Split data lines, the first of them line ``first``, into runs of
    consecutive lines that share the text before their last two fields.

    Yields ``(first line number, prefix, (bin texts, mean texts))``.  A line
    with fewer than three comma-separated parts raises after the run before
    it has been yielded, so errors surface in line order.
    """
    prefix, start, bin_texts, mean_texts = None, 0, [], []
    for lineno, line in enumerate(lines, start=first):
        parts = line.rsplit(",", 2)
        if len(parts) == 3 and parts[0] == prefix:
            bin_texts.append(parts[1])
            mean_texts.append(parts[2])
            continue
        if prefix is not None:
            yield start, prefix, (bin_texts, mean_texts)
        if len(parts) != 3:
            fields = next(csv.reader([line]), [])
            raise ConfigError(
                f"expected {len(DATASET_HEADER)} fields, got {len(fields)}",
                path=where(lineno),
            )
        prefix, start, bin_texts, mean_texts = parts[0], lineno, [parts[1]], [parts[2]]
    if prefix is not None:
        yield start, prefix, (bin_texts, mean_texts)


@lru_cache(maxsize=None)
def _bin_id_texts(nb: int) -> tuple:
    return tuple(str(b) for b in range(nb))


def _row_means(bin_texts, mean_texts, start, where) -> np.ndarray:
    """One row's bin means.  Its bin ids must run 0, 1, 2, ... and every mean
    must parse and lie in [0, 1]; otherwise the first faulty line is named.
    Rows as the writer spells them take the fast check; any other row is
    checked line by line."""
    if tuple(bin_texts) == _bin_id_texts(len(bin_texts)):
        try:
            means = np.array(mean_texts, dtype=float)
        except ValueError:
            pass
        else:
            if np.all((means >= 0.0) & (means <= 1.0)):
                return means
    for k, (bin_text, mean_text) in enumerate(zip(bin_texts, mean_texts)):
        try:
            bin_id = int(bin_text)
            mean = float(mean_text.rstrip("\r\n"))
        except ValueError as exc:
            raise ConfigError(str(exc), path=where(start + k)) from exc
        if not 0.0 <= mean <= 1.0:
            raise ConfigError(f"bin mean {mean} outside [0, 1]", path=where(start + k))
        if bin_id != k:
            raise ConfigError(f"bin id {bin_id} where {k} was expected", path=where(start + k))
    return np.array(mean_texts, dtype=float)


def _blocks(f, nb: int, eol: bytes, digest):
    """Yield ``(block, newline offsets)`` for the rest of ``f``: blocks of
    about _BLOCK_BYTES cut after a whole number of ``nb``-line rows, the
    partial row carried into the next block, then whatever the file ends
    with, given the line end ``eol`` if it lacks one.  Every byte read also
    goes to ``digest``."""
    pending, newlines, size = [], [], 0
    for chunk in iter(partial(f.read, _BLOCK_BYTES), b""):
        digest.update(chunk)
        newlines.append(np.flatnonzero(np.frombuffer(chunk, np.uint8) == 10) + size)
        pending.append(chunk)
        size += len(chunk)
        lines = sum(map(len, newlines))
        if lines >= nb:
            data, nl = b"".join(pending), np.concatenate(newlines)
            cut = int(nl[lines - lines % nb - 1]) + 1
            yield data[:cut], nl[: lines - lines % nb]
            pending, newlines, size = [data[cut:]], [nl[lines - lines % nb :] - cut], len(data) - cut
    tail = b"".join(pending)
    if tail and not tail.endswith(b"\n"):
        tail += eol
    if tail:
        yield tail, np.flatnonzero(np.frombuffer(tail, np.uint8) == 10)


def _read_blocks(f, eol, prefixes: list, bins: np.ndarray, max_texts: int, digest):
    """Fill ``bins`` from the blocks of dataset.csv after its header that the
    writer's rendering reproduces, feeding the bytes read to ``digest``.
    ``eol`` is the line end of a header spelled as the writer's, else None.

    A block of whole rows is accepted when :func:`_render` of the design's
    next rows (``prefixes``, each with its trailing comma) reproduces it
    exactly, every line's mean spelled by the text the line holds where the
    prefix and bin id end: at most ``max_texts`` distinct texts of
    ``0-9.eE+-`` that ``np.array(texts, dtype=float)`` converts to numbers in
    [0, 1], and ``eol`` ending every line.  Such a block reads exactly as it
    does line by line.  Returns ``(k, offset)``: ``offset`` is None when
    every block was accepted, with ``k`` rows filled; else ``k`` is the row
    to read line by line from, the last row of the last accepted block
    (whose run of lines may go on in the next block), and ``offset`` the
    file byte it starts at, 0 to check the header too when ``eol`` is None.
    """
    if eol is None:
        return 0, 0
    nb = bins.shape[1]
    tails = _Tails(nb, eol)
    means = np.empty(0)  # the value of each table row's mean text
    id_width = np.array([len(str(b)) + 1 for b in range(nb)])

    def spell(block, first, length, lines):
        nonlocal means
        texts = [block[s : s + n] for s, n in zip(first[lines].tolist(), length[lines].tolist())]
        if len(means) + len(texts) > max_texts or any(t.translate(None, _MEAN_CHARS) for t in texts):
            return None
        try:
            values = np.array([t.decode() for t in texts], dtype=float)
        except ValueError:
            return None
        if not np.all((values >= 0.0) & (values <= 1.0)):
            return None
        means = np.concatenate([means, values])
        return texts

    k, next_block, held_row = 0, f.tell(), None  # file offsets
    for block, nl in _blocks(f, nb, eol, digest):
        rows = len(nl) // nb
        if len(nl) % nb or k + rows > len(prefixes):
            break
        buf = np.frombuffer(block + _PAD, np.uint8)
        starts = np.concatenate(([0], nl[:-1] + 1)).reshape(rows, nb)
        encoded = [f"{prefix},".encode() for prefix in prefixes[k : k + rows]]
        plen = np.array([len(prefix) for prefix in encoded])
        first = (starts + plen[:, None] + id_width).ravel()
        length = nl + 1 - len(eol) - first
        if length.min() < 1:
            break
        # One key per mean text, from its length and first three 8-byte
        # words (a word past the text adds nothing, so a text has one key in
        # every block); texts that share a key fail the rendering below.
        words = np.ndarray((len(buf) - 7,), "<u8", buf, strides=(1,))
        key = length.astype(np.uint64)
        for i in range(min(3, (int(length.max()) + 7) // 8)):
            key ^= (words[first + 8 * i] & _LOW_BYTES[np.clip(length - 8 * i, 0, 8)]) * _KEY_MIX[i]
        ids = tails.find(key, partial(spell, block, first, length))
        if ids is None or _render(encoded, tails.take(ids).tolist()) != block:
            break
        bins[k : k + rows] = means[ids].reshape(rows, nb)
        k, held_row, next_block = k + rows, next_block + int(starts[-1, 0]), next_block + len(block)
    else:
        return k, None
    return (k - 1, held_row) if k else (0, next_block)


def _text_rows(f, offset: int, first: int, where):
    """The runs of :func:`_line_runs` of the binary file ``f`` read as text
    from byte ``offset``, where line ``first`` starts.  Reading from byte 0
    checks the header first."""
    f.seek(offset)
    lines = io.TextIOWrapper(f, newline="")
    if offset == 0:
        header = next(csv.reader([lines.readline()]), [])
        if tuple(header) != DATASET_HEADER:
            raise ConfigError(f"unexpected header {header}", path=where(1))
    yield from _line_runs(lines, first, where)


def _check_prefix(prefix: str, want, where: str) -> None:
    """Accept a row whose ``role,j,n,tuple_id`` prefix spells the design's row
    ``want`` in another valid way; otherwise raise a ConfigError for its field
    count, its length, or the row itself (``want`` None: past the last row)."""
    fields = next(csv.reader([prefix]), [])
    if len(fields) != 4:
        raise ConfigError(
            f"expected {len(DATASET_HEADER)} fields, got {len(fields) + 2}", path=where
        )
    try:
        n = _parse_length(fields[2])
    except ValueError as exc:
        raise ConfigError(str(exc), path=where) from exc
    if ",".join((*fields[:2], _format_length(n), fields[3])) != want:
        design = "ends" if want is None else f"has row {want}"
        raise ConfigError(f"row {prefix} where the design {design}", path=where)


def _read_dataset_csv(path: Path, cfg: RunConfig):
    """Rebuild ``(Experiment, qpt, sha256)`` from dataset.csv, with the noise
    and SPAM models of the configuration; ``sha256`` is the hex digest of the
    bytes read.

    The configuration's design is the reader's only record of which rows
    exist: the datasets of :func:`experiment_design`, each laid out by
    :func:`sampling.lay_out`, and the rows of :func:`_row_prefixes`.  Every
    length group and the tomography data view their rows of one array.  Row
    ``k`` of the file (a run of lines sharing one ``role,j,n,tuple_id``
    prefix) must be row ``k`` of the design, and its bin means fill row
    ``k`` of that array.  :func:`_read_blocks` takes every block of the file
    that the writer's rendering of the design's rows, with the file's own
    mean texts and the header's line end (CRLF or LF), reproduces; the rest
    is read line by line.  A wrong header or field count, an unparsable
    number, a mean outside [0, 1], bin ids other than 0, 1, 2, ... in order,
    a bin count other than the configuration's ``shots // bin_size``, or a
    row other than the design's raises a ConfigError naming the line; a file
    that ends early raises one naming the first missing row.
    """

    def where(lineno: int) -> str:
        return f"{path.name}:{lineno}"

    name, unitary = resolve_target(cfg.target_spec())
    design = list(experiment_design(name, unitary is not None, cfg.lengths(), cfg.repeats()))
    shots, bin_size = cfg.raw["shots"], cfg.raw["bin_size"]
    n_bins = shots // bin_size
    n_rows = sum(len(seqs) for *_, seqs in design)
    # With room for the tomography rows, if _row_prefixes has them.
    bins = np.empty((n_rows + _QPT_ROWS, n_bins))
    decays, start = {}, 0
    for role, j, label, seqs in design:
        decays[(role, j)] = lay_out(seqs, bins[start : start + len(seqs)], label, shots, bin_size, cfg.seed)
        start += len(seqs)
    exp = Experiment(name, unitary, decays, cfg.noise_model())
    prefixes = [prefix for block in _row_prefixes(exp, _has_qpt(cfg, exp)) for prefix in block]
    bins = bins[: len(prefixes)]
    qpt = QptDataset(bins[n_rows:]) if len(prefixes) > n_rows else None

    digest = hashlib.sha256()
    with path.open("rb") as f:
        header = f.readline()
        digest.update(header)
        k, offset = _read_blocks(f, _EOLS.get(header), prefixes, bins, bin_size + 1, digest)
        for chunk in iter(partial(f.read, _BLOCK_BYTES), b""):
            digest.update(chunk)
        if offset is not None:
            for start, prefix, texts in _text_rows(f, offset, 2 + k * n_bins, where):
                want = prefixes[k] if k < len(prefixes) else None
                if prefix != want:
                    _check_prefix(prefix, want, where(start))
                means = _row_means(*texts, start, where)
                if len(means) != n_bins:
                    raise ConfigError(
                        f"{len(means)} bins where shots // bin_size is {n_bins}",
                        path=where(start),
                    )
                bins[k] = means
                k += 1
    if k < len(prefixes):
        raise ConfigError(f"ends before row {prefixes[k]} of the design", path=path.name)
    return exp, qpt, digest.hexdigest()


def _fits_with_ci(fits: list, rates: np.ndarray, nonconverged: np.ndarray) -> list:
    """fits.json entries: each point fit's fields, its overlap, and the
    percentile CI and non-converged count of its bootstrap column."""
    out = []
    for col, fit in enumerate(fits):
        lo, hi = percentile_ci(rates[:, col])
        out.append(
            {field: getattr(fit, field) for field in FIT_FIELDS}
            | {
                "j": col + 1,
                "overlap": decay_to_overlap(fit.rate),
                "ci": {"rate": [float(lo), float(hi)], "nonconverged": int(nonconverged[col])},
            }
        )
    return out


def _witness_payload(report: WitnessReport) -> dict:
    return {
        "witness_re": [float(x) for x in report.witness.real],
        "witness_im": [float(x) for x in report.witness.imag],
        "expectation": report.expectation,
        "ci": [report.ci[0], report.ci[1]],
        "replications": report.replications,
        "samples_per_config": report.samples_per_config,
        "eig_multiplicity": report.eig_multiplicity,
    }


# ---------------------------------------------------------------------------
# Stage computations


def _require_converged(fits: list, which: str = "") -> None:
    """Raise NumericalError, naming ``which`` fits, if one did not converge."""
    bad = [f for f in fits if not f.converged]
    if bad:
        raise NumericalError(f"{len(bad)} joint fits{which} failed to converge")


def _compute_fits(cfg, exp: Experiment) -> ExperimentBootstrap:
    """Point fits and the main bootstrap; a point fit that did not converge
    raises NumericalError."""
    boot = experiment_bootstrap(
        exp.datasets,
        exp.reference,
        replications=cfg.raw["bootstrap"]["replications"],
        seed=cfg.seed,
        samples_per_config=cfg.raw["bootstrap"]["samples_per_config"],
        null_datasets=exp.null_datasets,
    )
    _require_converged(boot.fits + (boot.null_fits or []))
    return boot


def _fits_json(cfg, boot: ExperimentBootstrap) -> dict:
    null = None
    if boot.null_fits:
        null = _fits_with_ci(boot.null_fits, boot.null_rates, boot.null_nonconverged)
    return {
        "config_hash": cfg.config_hash(),
        "seed": cfg.seed,
        "target": _fits_with_ci(boot.fits, boot.rates, boot.nonconverged),
        "null": null,
    }


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _bootstrap_schema(cfg: RunConfig) -> dict:
    """``bootstrap.npz`` arrays as ``name -> (dtype, shape)``: the two stamps,
    then the point fits and refit samples of the target and, when the target
    has null data, of the null operation."""
    samples = (np.dtype(np.float64), (cfg.raw["bootstrap"]["replications"], N_OVERLAPS))
    _, unitary = resolve_target(cfg.target_spec())
    schema = {
        "config_hash": (np.dtype("<U16"), ()),
        "dataset_sha256": (np.dtype("<U64"), ()),
        "ref_rates": samples,
    }
    for prefix in ("", "null_") if unitary is not None else ("",):
        for field, dtype in FIT_FIELDS.items():
            schema[f"{prefix}fit_{field}"] = (np.dtype(dtype), (N_OVERLAPS,))
        schema[f"{prefix}rates"] = samples
        schema[f"{prefix}nonconverged"] = (np.dtype(np.int64), (N_OVERLAPS,))
    return schema


def _write_bootstrap_npz(path: Path, cfg, boot: ExperimentBootstrap, dataset_sha256: str):
    """``fit``'s bootstrap in ``np.savez`` layout, with fixed member
    timestamps so that equal inputs give equal bytes."""
    arrays = {
        "config_hash": cfg.config_hash(),
        "dataset_sha256": dataset_sha256,
        "ref_rates": boot.ref_rates,
    }
    for prefix, fits in (("", boot.fits), ("null_", boot.null_fits)):
        if fits is None:
            continue
        for field in FIT_FIELDS:
            arrays[f"{prefix}fit_{field}"] = [getattr(fit, field) for fit in fits]
        arrays[f"{prefix}rates"] = getattr(boot, f"{prefix}rates")
        arrays[f"{prefix}nonconverged"] = getattr(boot, f"{prefix}nonconverged")
    schema = _bootstrap_schema(cfg)
    with zipfile.ZipFile(path, "w") as zf:
        for name, value in arrays.items():
            info = zipfile.ZipInfo(f"{name}.npy", date_time=(1980, 1, 1, 0, 0, 0))
            with zf.open(info, "w", force_zip64=True) as f:
                array = np.asarray(value, dtype=schema[name][0])
                np.lib.format.write_array(f, array, allow_pickle=False)


def _read_bootstrap_npz(path: Path, cfg, dataset_path: Path) -> ExperimentBootstrap:
    """Reload ``fit``'s bootstrap; :class:`ExperimentBootstrap` derives the
    reconstruction stacks as in the fused run.  A missing or unreadable file, a
    stamp that does not match the configuration or ``dataset.csv``, and a
    missing, extra or misshapen array raise a ConfigError naming it."""
    if not path.is_file():
        raise ConfigError("missing; run `fit` first", path=path.name)
    stamps = {"config_hash": cfg.config_hash(), "dataset_sha256": _sha256(dataset_path)}
    try:
        npz = np.load(path, allow_pickle=False)
        if not isinstance(npz, np.lib.npyio.NpzFile):
            raise ValueError("not an .npz archive")
        with npz:
            arrays = {name: npz[name] for name in npz.files}
    except (ValueError, EOFError, NotImplementedError, zipfile.BadZipFile, zlib.error) as exc:
        raise ConfigError(f"unreadable ({exc}); run `fit` again", path=path.name) from exc
    schema = _bootstrap_schema(cfg)
    for name, (dtype, shape) in schema.items():
        where = f"{path.name}:{name}"
        if name not in arrays:
            raise ConfigError("missing", path=where)
        array = arrays[name]
        if array.dtype != dtype or array.shape != shape:
            raise ConfigError(
                f"{array.dtype} of shape {array.shape} where {dtype} of shape {shape} "
                "was expected",
                path=where,
            )
        if name in stamps and str(array) != stamps[name]:
            raise ConfigError(
                f"{array} does not match this run's {stamps[name]}; run `fit` again",
                path=where,
            )
    extra = arrays.keys() - schema.keys()
    if extra:
        raise ConfigError("not expected for this configuration", path=f"{path.name}:{min(extra)}")

    def fits(prefix):
        if f"{prefix}rates" not in arrays:
            return None
        columns = [arrays[f"{prefix}fit_{field}"].tolist() for field in FIT_FIELDS]
        return [FitResult(**dict(zip(FIT_FIELDS, values))) for values in zip(*columns)]

    return ExperimentBootstrap(
        fits=fits(""),
        null_fits=fits("null_"),
        rates=arrays["rates"],
        null_rates=arrays.get("null_rates"),
        ref_rates=arrays["ref_rates"],
        nonconverged=arrays["nonconverged"],
        null_nonconverged=arrays.get("null_nonconverged"),
    )


def _reconstruction_json(cfg, boot, rec: Reconstruction) -> dict:
    mat_lo, mat_hi = percentile_ci(boot.unital)
    payload = {
        "config_hash": cfg.config_hash(),
        "overlaps": {
            "values": [float(a) for a in rec.overlaps.values],
            "ci_low": [float(x) for x in rec.overlaps.ci_low],
            "ci_high": [float(x) for x in rec.overlaps.ci_high],
        },
        "e_prime": superop_to_list(rec.point["raw"]),
        "e_prime_ci_low": superop_to_list(mat_lo),
        "e_prime_ci_high": superop_to_list(mat_hi),
        "corrected_left": None,
        "corrected_right": None,
        "fidelity": rec.fidelity,
    }
    if "null" in rec.point:
        payload["null_e_prime"] = superop_to_list(rec.point["null"])
        payload["corrected_left"] = superop_to_list(rec.point["left"])
        payload["corrected_right"] = superop_to_list(rec.point["right"])
    return payload


def _write_csv(path: Path, header, rows) -> None:
    with path.open("w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        writer.writerows(rows)


def _decay_curve_rows(exp: Experiment, boot: ExperimentBootstrap):
    """Plot-ready decay curves: measured per-length means next to the fitted
    model value, for every decay dataset in design order.  The reference's
    model is the first target fit's at its reference rate."""
    first = boot.fits[0]
    fits = {"target": boot.fits, "null": boot.null_fits, "reference": [replace(first, rate=first.ref_rate)]}
    for (role, j), ds in exp.decays.items():
        fit = fits[role][0 if j is None else j - 1]
        head = (exp.target_name if role == "target" else role, "" if j is None else j)
        means = ds.means()
        for n in ds.lengths():
            model = fit.offset if math.isinf(n) else fit.scale * fit.rate ** n + fit.offset
            yield *head, _format_length(n), repr(float(means[n])), repr(float(model))


def _negativity_rows(witness_payload: dict, target_name: str):
    reports = [(f"rbt-{variant}", rep) for variant, rep in witness_payload["rbt"].items()]
    if witness_payload["qpt"] is not None:
        reports.append(("qpt", witness_payload["qpt"]))
    for method, rep in reports:
        yield method, target_name, repr(rep["expectation"]), repr(rep["ci"][0]), repr(rep["ci"][1])


# ---------------------------------------------------------------------------
# Stages: each takes its inputs in memory and writes its artifacts


def _artifact(out: Path, name: str, written: list) -> Path:
    """``out / name``, registered in ``written`` so that a failed run
    removes it.  ``out`` is made here, so a run refused before its first
    artifact leaves no directory."""
    out.mkdir(parents=True, exist_ok=True)
    path = out / name
    written.append(path)
    return path


def _simulate_all(cfg: RunConfig):
    exp = simulate_experiment(
        cfg.target_spec(),
        cfg.noise_model(),
        cfg.spam_model(),
        shots=cfg.raw["shots"],
        bin_size=cfg.raw["bin_size"],
        seed=cfg.seed,
        lengths=cfg.lengths(),
        repeats=cfg.repeats(),
    )
    qpt = None
    if _has_qpt(cfg, exp):
        qpt = sample_qpt_dataset(
            exp.applied_target_channel(),
            assignment_fidelity=cfg.spam_model().assignment_fidelity,
            shots=cfg.raw["shots"],
            bin_size=cfg.raw["bin_size"],
            seed=cfg.seed,
        )
    return exp, qpt


def _simulate_stage(cfg, out: Path, written: list):
    exp, qpt = _simulate_all(cfg)
    _write_dataset_csv(_artifact(out, "dataset.csv", written), exp, qpt)
    return exp, qpt


def _fit_stage(cfg, out: Path, written: list, exp: Experiment):
    boot = _compute_fits(cfg, exp)
    _write_json(_artifact(out, "fits.json", written), _fits_json(cfg, boot))
    _write_csv(
        _artifact(out, "decay_curves.csv", written),
        ("role", "j", "n", "measured", "model"),
        _decay_curve_rows(exp, boot),
    )
    return boot


def _reconstruct_stage(cfg, out: Path, written: list, boot: ExperimentBootstrap):
    _, target_unitary = resolve_target(cfg.target_spec())
    rec = build_reconstruction(target_unitary, boot)
    payload = _reconstruction_json(cfg, boot, rec)
    _write_json(_artifact(out, "reconstruction.json", written), payload)
    _write_csv(
        _artifact(out, "hinton.csv", written),
        ("row", "col", "magnitude", "sign", "accessible"),
        (
            (r["row"], r["col"], repr(r["magnitude"]), r["sign"], int(r["accessible"]))
            for r in hinton_records(rec.point["raw"])
        ),
    )
    return rec


def _witness_stage(cfg, out: Path, written: list, exp: Experiment, qpt):
    replications = cfg.raw["bootstrap"]["replications"]
    payload = {"config_hash": cfg.config_hash(), "rbt": {}, "qpt": None}
    null_datasets = exp.null_datasets
    variants = [v for v in cfg.raw["witness"]["variants"] if v == "raw" or null_datasets]
    if variants:
        # Null halves are split, fit and resampled only for corrected variants.
        needs_null = any(v != "raw" for v in variants)
        halves = split_half_bootstrap(
            exp.datasets,
            exp.reference,
            replications=replications,
            seed=cfg.seed,
            null_datasets=null_datasets if needs_null else None,
        )
        _require_converged(halves.first_fits, " of the first halves")
        _require_converged(halves.boot.fits + (halves.boot.null_fits or []), " of the second halves")
        for variant in variants:
            report = rbt_witness_report(halves, variant=variant)
            payload["rbt"][variant] = _witness_payload(report)
    if qpt is not None:
        report = qpt_witness_report(
            qpt,
            cfg.raw["qpt"]["assumed_assignment_fidelity"],
            replications=replications,
            seed=cfg.seed,
        )
        payload["qpt"] = _witness_payload(report)
    _write_json(_artifact(out, "witness.json", written), payload)
    _write_csv(
        _artifact(out, "negativity.csv", written),
        ("method", "gate", "expectation", "ci_low", "ci_high"),
        _negativity_rows(payload, exp.target_name),
    )


# ---------------------------------------------------------------------------
# Commands


def cmd_gen_sequences(cfg: RunConfig, out: Path, stage_in: Path, written: list) -> None:
    _write_sequences_json(_artifact(out, "sequences.json", written), cfg)


def cmd_simulate(cfg: RunConfig, out: Path, stage_in: Path, written: list) -> None:
    _simulate_stage(cfg, out, written)


def cmd_fit(cfg: RunConfig, out: Path, stage_in: Path, written: list) -> None:
    exp, _, dataset_sha256 = _read_dataset_csv(stage_in / "dataset.csv", cfg)
    boot = _fit_stage(cfg, out, written, exp)
    npz = _artifact(out, "bootstrap.npz", written)
    _write_bootstrap_npz(npz, cfg, boot, dataset_sha256)


def cmd_reconstruct(cfg: RunConfig, out: Path, stage_in: Path, written: list) -> None:
    boot = _read_bootstrap_npz(stage_in / "bootstrap.npz", cfg, stage_in / "dataset.csv")
    _reconstruct_stage(cfg, out, written, boot)


def cmd_witness(cfg: RunConfig, out: Path, stage_in: Path, written: list) -> None:
    if not cfg.raw["witness"]["enabled"]:
        return
    exp, qpt, _ = _read_dataset_csv(stage_in / "dataset.csv", cfg)
    _witness_stage(cfg, out, written, exp, qpt)


def cmd_pipeline(cfg: RunConfig, out: Path, stage_in: Path, written: list) -> None:
    cmd_gen_sequences(cfg, out, stage_in, written)
    exp, qpt = _simulate_stage(cfg, out, written)
    boot = _fit_stage(cfg, out, written, exp)
    rec = _reconstruct_stage(cfg, out, written, boot)
    if cfg.raw["witness"]["enabled"]:
        _witness_stage(cfg, out, written, exp, qpt)
    qpt_superop = None
    if qpt is not None:
        qpt_superop = qpt_point_estimate(qpt, cfg.raw["qpt"]["assumed_assignment_fidelity"])
    summary = {
        "config_hash": cfg.config_hash(),
        "seed": cfg.seed,
        "target": exp.target_name,
        "fidelity": summary_table(exp, boot, qpt_superop, rec),
    }
    _write_json(_artifact(out, "summary.json", written), summary)


def cmd_pulse_scan(cfg: RunConfig, out: Path, stage_in: Path, written: list) -> None:
    from .groups import rotation_unitary
    from .pulses import (
        DuffingModel,
        RotationSpec,
        drag_correction,
        gaussian_envelope,
        phase_ramp,
        simulate_duffing,
        simulate_qubit,
        unitary_infidelity,
    )

    pcfg = cfg.raw["pulse_scan"]
    target_axis = np.array([1.0, 0.0, 1.0]) / np.sqrt(2.0)
    angle = np.pi
    target_u = rotation_unitary(target_axis, angle)
    model = DuffingModel(
        levels=pcfg["levels"],
        anharmonicity=2 * np.pi * pcfg["anharmonicity_hz"],
    )
    duration = pcfg["duration"]
    rows = []
    for n in pcfg["sample_counts"]:
        dt = duration / n
        env = gaussian_envelope(duration / 4.0, dt, angle * float(np.hypot(*target_axis[:2])))
        for order in (1, 2):
            pulse = phase_ramp(env, dt, RotationSpec(axis=target_axis, angle=angle), order)
            infid = unitary_infidelity(simulate_qubit(pulse), target_u)
            rows.append(("qubit", repr(dt), order, 0, repr(infid), repr(0.0)))
            with np.errstate(over="ignore"):  # a tiny anharmonicity overflows the detunings
                drag_pulse = drag_correction(pulse, model, pcfg["drag_coefficient"])
            if not np.isfinite(drag_pulse.phases).all():
                raise ConfigError("DRAG-corrected phases not finite", path="$.pulse_scan.anharmonicity_hz")
            for drag, played in enumerate((pulse, drag_pulse)):
                superop, leakage = simulate_duffing(played, model)
                infid_d = 1.0 - avg_fidelity(superop, target_u)
                rows.append(("duffing", repr(dt), order, drag, repr(infid_d), repr(leakage)))
    _write_csv(
        _artifact(out, "pulse_scan.csv", written),
        ("model", "dt", "order", "drag", "infidelity", "leakage"),
        rows,
    )


COMMANDS = {
    "pipeline": cmd_pipeline,
    "gen-sequences": cmd_gen_sequences,
    "simulate": cmd_simulate,
    "fit": cmd_fit,
    "reconstruct": cmd_reconstruct,
    "witness": cmd_witness,
    "pulse-scan": cmd_pulse_scan,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rbtlab",
        description="Randomized benchmarking tomography simulation pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", type=Path, default=None, help="JSON config file")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--out", type=Path, default=Path("rbtlab-out"))
        if name in ("fit", "reconstruct", "witness"):
            p.add_argument(
                "--stage-input",
                type=Path,
                default=None,
                help="directory holding upstream artifacts (default: --out)",
            )
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    written: list = []
    try:
        if args.config is not None:
            cfg = RunConfig.from_file(args.config)
        else:
            cfg = RunConfig.from_dict({})
        if args.seed is not None:
            data = dict(cfg.raw)
            data["seed"] = args.seed
            cfg = RunConfig.from_dict(data)
        out = args.out
        stage_in = getattr(args, "stage_input", None) or out
        COMMANDS[args.command](cfg, out, stage_in, written)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        _cleanup(written)
        return 2
    except (NumericalError, ChannelInversionError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        _cleanup(written)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        _cleanup(written)
        return 4
    except BaseException:
        _cleanup(written)
        raise
    for path in written:
        print(path)
    return 0


def _cleanup(written) -> None:
    for path in written:
        try:
            Path(path).unlink(missing_ok=True)
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
