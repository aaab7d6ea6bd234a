"""The wire codec as it stood before it was vectorised, kept as an oracle.

``encode_column`` (with ``value_wire_bytes`` and the two varint helpers it
leans on) is a verbatim copy of ``repro.federation.columnar`` at commit
b4bf28b: one interpreted pass per candidate encoding, every candidate's
payload built.  It defines the byte model -- candidate order, strict-``<``
tie rule, sizes, payload shapes -- that the production codec must
reproduce field for field (``tests/test_columnar_execution.py``).  Do not
optimise or tidy it; change it only together with a deliberate change to
the byte model.
"""

from typing import Any

from repro.core.values import Money
from repro.federation.columnar import COLUMN_HEADER_BYTES, EncodedColumn


def value_wire_bytes(value: Any) -> int:
    """Bytes one value costs under naive (plain) row serialization."""
    if value is None:
        return 1
    if isinstance(value, bool):
        return 1
    if isinstance(value, int):
        return 8
    if isinstance(value, float):
        return 8
    if isinstance(value, Money):
        return 16
    if isinstance(value, str):
        return 2 + len(value.encode("utf-8"))
    return 2 + len(str(value).encode("utf-8"))


def _zigzag(n: int) -> int:
    return (n << 1) if n >= 0 else ((-n << 1) - 1)


def _varint_len(n: int) -> int:
    return max(1, (n.bit_length() + 6) // 7)


def encode_column(name: str, values: list) -> EncodedColumn:
    """Serialize one column under the cheapest applicable encoding."""
    count = len(values)
    raw = COLUMN_HEADER_BYTES + sum(value_wire_bytes(v) for v in values)
    encoding, payload, size = "plain", list(values), raw

    if count:
        # Dictionary: first-appearance codes.  Keys pair the value with its
        # type so 1/1.0/True never collapse into one entry; floats key by
        # repr so 0.0/-0.0 stay distinct (and all NaNs share one entry).
        mapping: dict = {}
        dict_values: list = []
        codes: list[int] = []
        hashable = True
        try:
            for v in values:
                key = (type(v), repr(v)) if type(v) is float else (type(v), v)
                code = mapping.get(key, -1)
                if code < 0:
                    code = mapping[key] = len(dict_values)
                    dict_values.append(v)
                codes.append(code)
        except TypeError:
            hashable = False
        if hashable and len(dict_values) < count and len(dict_values) <= 65536:
            index_bytes = 1 if len(dict_values) <= 256 else 2
            dict_size = (
                COLUMN_HEADER_BYTES
                + sum(value_wire_bytes(v) for v in dict_values)
                + count * index_bytes
            )
            if dict_size < size:
                encoding, payload, size = "dict", (dict_values, codes), dict_size

        # Run-length: runs compare by (type, value) so True/1 stay distinct;
        # floats compare by repr so 0.0/-0.0 never merge and equal-repr NaNs
        # do (bit-equivalent on decode).
        runs: list[tuple[Any, int]] = []
        for v in values:
            if runs:
                last, n = runs[-1]
                if type(last) is type(v):
                    if type(v) is float:
                        same = repr(last) == repr(v)
                    else:
                        try:
                            same = bool(last == v)
                        except Exception:
                            same = False
                    if same:
                        runs[-1] = (last, n + 1)
                        continue
            runs.append((v, 1))
        rle_size = COLUMN_HEADER_BYTES + sum(
            value_wire_bytes(v) + 2 for v, _ in runs
        )
        if rle_size < size:
            encoding, payload, size = "rle", list(runs), rle_size

        # Delta: exact-int columns only (bool is excluded so decode
        # preserves types), zigzag-varint deltas.
        if all(type(v) is int for v in values):
            deltas = [values[i] - values[i - 1] for i in range(1, count)]
            delta_size = (
                COLUMN_HEADER_BYTES
                + 9
                + sum(_varint_len(_zigzag(d)) for d in deltas)
            )
            if delta_size < size:
                encoding, payload, size = "delta", (values[0], deltas), delta_size

        # Bit-packing: pure flag columns (bool or NULL) at two bits per
        # value -- random flags defeat RLE but still pack four values per
        # byte against one byte each under plain.
        if all(v is None or type(v) is bool for v in values):
            bits_size = COLUMN_HEADER_BYTES + (count + 3) // 4
            if bits_size < size:
                encoding, payload, size = "bits", list(values), bits_size

        # Scaled-decimal delta: float columns holding short decimals
        # (prices, distances) store integer multiples of 1/scale,
        # delta-coded.  Chosen only when every value provably round-trips
        # bit-exactly through the scaling.
        if all(type(v) is float for v in values):
            for scale in (10, 100):
                scaled: "list[int] | None" = []
                for v in values:
                    try:
                        i = round(v * scale)
                    except (OverflowError, ValueError):  # inf, nan
                        scaled = None
                        break
                    if repr(i / scale) != repr(v):
                        scaled = None
                        break
                    scaled.append(i)
                if scaled is None:
                    continue
                deltas = [scaled[i] - scaled[i - 1] for i in range(1, count)]
                scaled_size = (
                    COLUMN_HEADER_BYTES
                    + 1  # the scale
                    + 9
                    + sum(_varint_len(_zigzag(d)) for d in deltas)
                )
                if scaled_size < size:
                    encoding, payload, size = (
                        "scaled",
                        (scale, scaled[0], deltas),
                        scaled_size,
                    )
                break

        # Prefix (front coding): string columns that share leading bytes
        # with their predecessor (sorted or clustered identifiers).
        if any(type(v) is str for v in values) and all(
            v is None or type(v) is str for v in values
        ):
            entries: list = []
            prefix_size = COLUMN_HEADER_BYTES
            prev = ""
            for v in values:
                if v is None:
                    entries.append(None)
                    prefix_size += 1
                    continue
                shared = 0
                limit = min(len(prev), len(v))
                while shared < limit and prev[shared] == v[shared]:
                    shared += 1
                suffix = v[shared:]
                entries.append((shared, suffix))
                prefix_size += 2 + len(suffix.encode("utf-8"))
                prev = v
            if prefix_size < size:
                encoding, payload, size = "prefix", entries, prefix_size

    return EncodedColumn(name, encoding, count, payload, size, raw)
