"""Multimodal columns: image/audio/video as opaque ``binary`` columns with
typed metadata. The decode libraries (PIL/ffmpeg/torchaudio) are NOT in this
container, so THOSE codec legs are STUBBED — either a clearly-marked
``NotImplementedError`` or a deterministic fake decoder — while the Ray-side
plumbing (schema, callable stage shape, batch sizing for large payloads,
output layout) is real and tested. One leg needs no external library and is
REAL: the binary Netpbm family (:func:`decode_pnm`, P5/P6 with full header
grammar and 8/16-bit rasters), driver-hash-certified by a generator-replay
twin (``q_mm_pnm_decode``).

Schema convention::

    media: doc_id:int64, kind:string('image'|'audio'), payload:binary,
           meta_width:int32, meta_height:int32, meta_sample_rate:int32

Large binary payloads ⇒ small ``batch_size`` and ``batch_format="pyarrow"``
(binary columns don't survive pandas object dtype well; ray_guide pitfalls).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa


class DecodeImageStage:
    """``map_batches`` stage: payload → fixed-size feature vector.

    ``backend="fake"`` derives a deterministic pseudo-decode from the payload
    bytes (stable across runs/partitioning — usable in tests and benchmarks);
    ``backend="pil"`` raises NotImplementedError until a real decoder is
    available in the runtime image.
    """

    def __init__(self, out_size: tuple[int, int] = (8, 8), backend: str = "fake"):
        self.out_size = out_size
        self.backend = backend
        if backend not in ("fake", "pil"):
            raise ValueError(backend)

    def _decode_fake(self, payload: bytes) -> np.ndarray:
        h, w = self.out_size
        seed = np.frombuffer(hashlib.sha256(payload).digest(), dtype=np.uint32)
        rng = np.random.default_rng(seed)
        return rng.random((h, w), dtype=np.float32).reshape(-1)

    def __call__(self, batch: pa.Table) -> pa.Table:
        if self.backend == "pil":
            raise NotImplementedError(
                "real image decode requires PIL/torchvision — not in this "
                "runtime; use backend='fake' for plumbing tests"
            )
        feats = [self._decode_fake(p.as_py()) for p in batch["payload"]]
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "feature": pa.array([f.tolist() for f in feats], type=pa.list_(pa.float32())),
                "feat_dim": pa.array([len(f) for f in feats], type=pa.int32()),
            }
        )


class AudioFrameSampleStage:
    """``map_batches`` stage: audio payload → sampled frame energies (stub).
    Deterministic fake: frame energy = byte-window means."""

    def __init__(self, n_frames: int = 16, backend: str = "fake"):
        self.n_frames = n_frames
        self.backend = backend

    def __call__(self, batch: pa.Table) -> pa.Table:
        if self.backend != "fake":
            raise NotImplementedError("real audio decode not available here")
        out = []
        for p in batch["payload"]:
            data = np.frombuffer(p.as_py(), dtype=np.uint8)
            if data.size == 0:
                out.append([0.0] * self.n_frames)
                continue
            chunks = np.array_split(data.astype(np.float32), self.n_frames)
            out.append([float(c.mean()) if len(c) else 0.0 for c in chunks])
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "frame_energy": pa.array(out, type=pa.list_(pa.float32())),
            }
        )


class ResizeImageStage:
    """``map_batches`` stage: decoded pixel grid → block-mean downsample to
    ``out_size``. The RESIZE KERNEL itself is real vectorized numpy (area
    interpolation via reshape+mean when shapes divide, else strided
    nearest); only the upstream decode is faked in this container. Input
    rows carry ``pixels: list<float>`` + ``px_h``/``px_w``."""

    def __init__(self, out_size: tuple[int, int] = (4, 4)):
        self.out_size = out_size

    def _resize(self, px: np.ndarray, h: int, w: int) -> np.ndarray:
        oh, ow = self.out_size
        img = px.reshape(h, w)
        if h % oh == 0 and w % ow == 0:  # exact area pooling
            return img.reshape(oh, h // oh, ow, w // ow).mean(axis=(1, 3))
        ri = (np.arange(oh) * h // oh).clip(0, h - 1)
        ci = (np.arange(ow) * w // ow).clip(0, w - 1)
        return img[np.ix_(ri, ci)]

    def __call__(self, batch: pa.Table) -> pa.Table:
        out = []
        hs = batch["px_h"].to_pylist()
        ws = batch["px_w"].to_pylist()
        for p, h, w in zip(batch["pixels"], hs, ws):
            px = np.asarray(p.as_py(), dtype=np.float32)
            out.append(self._resize(px, int(h), int(w)).reshape(-1).tolist())
        oh, ow = self.out_size
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "pixels": pa.array(out, type=pa.list_(pa.float32())),
                "px_h": pa.array([oh] * len(out), type=pa.int32()),
                "px_w": pa.array([ow] * len(out), type=pa.int32()),
            }
        )


class VideoFrameSampleStage:
    """``map_batches`` stage: video payload → ``n_frames`` uniformly-sampled
    frame features (stub decode: fixed-stride byte stripes as frames; the
    uniform-stride sampling layout matches what a real ffmpeg-backed stage
    would emit — one row per (doc, frame) with a feature vector)."""

    def __init__(self, n_frames: int = 4, feat_dim: int = 16, backend: str = "fake"):
        self.n_frames = n_frames
        self.feat_dim = feat_dim
        self.backend = backend

    def __call__(self, batch: pa.Table) -> pa.Table:
        if self.backend != "fake":
            raise NotImplementedError("real video decode (ffmpeg) not available here")
        ids, fidx, feats = [], [], []
        for d, p in zip(batch["doc_id"].to_pylist(), batch["payload"]):
            data = np.frombuffer(p.as_py(), dtype=np.uint8)
            for f in range(self.n_frames):
                ids.append(d)
                fidx.append(f)
                if data.size == 0:
                    feats.append([0.0] * self.feat_dim)
                    continue
                stripe = data[f::self.n_frames].astype(np.float32)
                chunks = np.array_split(stripe, self.feat_dim)
                feats.append([float(c.mean()) if len(c) else 0.0 for c in chunks])
        return pa.table(
            {
                "doc_id": pa.array(ids, type=pa.int64()),
                "frame_idx": pa.array(fidx, type=pa.int32()),
                "feature": pa.array(feats, type=pa.list_(pa.float32())),
            }
        )


def synthesize_media(ds, *, text_col: str = "text", id_col: str = "doc_id"):
    """documents → media table with a REAL ``binary`` payload column:
    2-byte dimension header (width/height as single printable bytes so a
    DuckDB ``chr(..)||chr(..)`` oracle reproduces the blob exactly) followed
    by the UTF-8 text bytes. Deterministic per doc_id — the sandbox's
    sanctioned stand-in for a crawl's image bytes; everything downstream
    (Arrow binary columns through the object store, per-batch parsing,
    small-batch sizing) is the real plumbing."""

    def synth(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_pylist()
        texts = batch[text_col].to_pylist()
        payloads = [
            bytes([33 + d % 64, 33 + (d // 64) % 64]) + (t or "").encode("utf-8")
            for d, t in zip(ids, texts)
        ]
        return pa.table(
            {
                "doc_id": pa.array(ids, type=pa.int64()),
                "kind": pa.array(["image"] * len(ids)),
                "payload": pa.array(payloads, type=pa.binary()),
            }
        )

    return ds.map_batches(synth, batch_format="pyarrow", batch_size=256)


class MediaMetaStage:
    """``map_batches`` stage: binary payload → typed metadata row
    (doc_id, width, height, n_bytes, payload_md5). The header parse reads
    the payload bytes themselves — this is the stage a real decoder would
    replace — and the md5 fingerprints every payload byte so a value-hash
    oracle covers the whole blob round-trip."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids, widths, heights, nbytes, md5s = [], [], [], [], []
        for d, p in zip(batch["doc_id"].to_pylist(), batch["payload"]):
            raw = p.as_py()
            ids.append(d)
            widths.append(raw[0] if len(raw) > 0 else -1)
            heights.append(raw[1] if len(raw) > 1 else -1)
            nbytes.append(len(raw))
            md5s.append(hashlib.md5(raw).hexdigest())
        return pa.table(
            {
                "doc_id": pa.array(ids, type=pa.int64()),
                "width": pa.array(widths, type=pa.int64()),
                "height": pa.array(heights, type=pa.int64()),
                "n_bytes": pa.array(nbytes, type=pa.int64()),
                "payload_md5": pa.array(md5s),
            }
        )


def decode_media(ds, kind: str = "image", batch_size: int = 64):
    """Wire a media dataset through the right decode stage — small batches
    because payloads are wide (ray_guide memory notes)."""
    stage = {
        "image": DecodeImageStage,
        "audio": AudioFrameSampleStage,
        "video": VideoFrameSampleStage,
    }[kind]()
    return ds.map_batches(stage, batch_format="pyarrow", batch_size=batch_size)


def decode_pnm(payload: bytes) -> tuple[np.ndarray, int, int, int, int]:
    """REAL image decode for the binary Netpbm family (P5 grayscale /
    P6 RGB) — a production interchange format parsed with stdlib + numpy
    only, no external codec library, which upgrades one leg of the decode
    matrix from env-stubbed to genuinely decoded (PIL/ffmpeg formats remain
    gated). Full header grammar: magic, whitespace/`#`-comment runs, width,
    height, maxval, ONE whitespace byte, then raw samples (1 byte each, or
    2-byte big-endian when maxval ≥ 256). Returns
    ``(samples int64 [h, w, ch], w, h, ch, maxval)``."""
    pos = 0
    n = len(payload)

    def token() -> bytes:
        nonlocal pos
        while pos < n:
            ch = payload[pos : pos + 1]
            if ch == b"#":
                nl = payload.find(b"\n", pos)
                pos = n if nl < 0 else nl + 1
            elif ch.isspace():
                pos += 1
            else:
                break
        start = pos
        while pos < n and not payload[pos : pos + 1].isspace():
            pos += 1
        return payload[start:pos]

    magic = token()
    if magic not in (b"P5", b"P6"):
        raise ValueError(f"not a binary PNM payload: {magic!r}")
    w, h, maxval = int(token()), int(token()), int(token())
    pos += 1  # exactly one whitespace byte separates header and raster
    ch = 1 if magic == b"P5" else 3
    dt = np.dtype(np.uint8) if maxval < 256 else np.dtype(">u2")
    need = w * h * ch
    if len(payload) - pos < need * dt.itemsize:
        raise ValueError("truncated PNM raster")
    data = np.frombuffer(payload, dtype=dt, count=need, offset=pos)
    return data.astype(np.int64).reshape(h, w, ch), w, h, ch, maxval


class DecodePnmStage:
    """``map_batches`` stage over binary PNM payloads → per-image integer stats
    + a luminance grid the (real) resize kernel can consume. Exact-integer
    outputs (sample_sum, lum_sum = Σ (r+g+b)//3) so a SQL twin replaying
    the image-generation arithmetic certifies the PARSER: any header or
    raster misread changes the sums."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids, hs, ws, lums, ssum, nsmp, lsum = [], [], [], [], [], [], []
        for did, p in zip(batch["doc_id"].to_pylist(), batch["payload"]):
            img, w, h, ch, _ = decode_pnm(p.as_py())
            lum = img.sum(axis=2) // ch if ch == 3 else img[:, :, 0]
            ids.append(did)
            hs.append(h)
            ws.append(w)
            lums.append(lum.reshape(-1).astype(np.float32).tolist())
            ssum.append(int(img.sum()))
            nsmp.append(int(img.size))
            lsum.append(int(lum.sum()))
        return pa.table(
            {
                "doc_id": pa.array(ids, type=pa.int64()),
                "px_h": pa.array(hs, type=pa.int32()),
                "px_w": pa.array(ws, type=pa.int32()),
                "pixels": pa.array(lums, type=pa.list_(pa.float32())),
                "sample_sum": pa.array(ssum, type=pa.int64()),
                "n_samples": pa.array(nsmp, type=pa.int64()),
                "lum_sum": pa.array(lsum, type=pa.int64()),
            }
        )


def synthesize_pnm_corpus(ds, *, id_col: str = "doc_id"):
    """Deterministic P6 payload per doc (gradient raster, size varies by
    id, every 5th header carries a comment line — exercising the full
    header grammar); the SQL twin replays the same generating arithmetic
    WITHOUT parsing, so engine-vs-oracle agreement certifies the decoder."""

    def gen(t: pa.Table) -> pa.Table:
        ids = t[id_col].to_numpy()
        payloads = []
        for did in ids:
            did = int(did)
            w, h = 4 + did % 3, 3 + did % 2
            y, x, c = np.meshgrid(
                np.arange(h), np.arange(w), np.arange(3), indexing="ij"
            )
            raster = ((did * 31 + y * 7 + x * 3 + c * 11) % 256).astype(np.uint8)
            comment = b"# synthetic gradient\n" if did % 5 == 0 else b""
            payloads.append(
                b"P6\n" + comment + f"{w} {h}\n255\n".encode() + raster.tobytes()
            )
        return pa.table(
            {
                "doc_id": pa.array([int(i) for i in ids], type=pa.int64()),
                "payload": pa.array(payloads, type=pa.binary()),
            }
        )

    return ds.map_batches(gen, batch_format="pyarrow")


def decode_wav_pcm(payload: bytes) -> tuple[np.ndarray, int, int]:
    """REAL audio decode for RIFF/WAVE PCM — the other no-external-library
    leg (stdlib struct + numpy): walks the chunk list (skipping unknown
    chunks like LIST/INFO), reads the PCM ``fmt `` header, and returns
    ``(samples int64 [n, channels], sample_rate, channels)``. 8-bit
    (unsigned) and 16-bit (signed little-endian) PCM supported; anything
    else raises (compressed WAV needs a real codec library)."""
    import struct

    if payload[:4] != b"RIFF" or payload[8:12] != b"WAVE":
        raise ValueError("not a RIFF/WAVE payload")
    pos, n = 12, len(payload)
    fmt = None
    data = None
    while pos + 8 <= n:
        cid = payload[pos : pos + 4]
        (size,) = struct.unpack("<I", payload[pos + 4 : pos + 8])
        body = payload[pos + 8 : pos + 8 + size]
        if len(body) != size:
            raise ValueError(f"truncated WAV chunk {cid!r}")
        if cid == b"fmt ":
            fmt = struct.unpack("<HHIIHH", body[:16])
        elif cid == b"data":
            data = body
        pos += 8 + size + (size & 1)  # chunks are word-aligned
    if fmt is None or data is None:
        raise ValueError("missing fmt/data chunk")
    audio_format, channels, sample_rate, _br, _ba, bits = fmt
    if audio_format != 1:
        raise ValueError(f"not PCM (format {audio_format})")
    if bits == 16:
        samples = np.frombuffer(data, dtype="<i2")
    elif bits == 8:
        samples = np.frombuffer(data, dtype=np.uint8).astype(np.int64) - 128
    else:
        raise ValueError(f"unsupported bit depth {bits}")
    samples = samples.astype(np.int64)
    usable = (len(samples) // channels) * channels
    return samples[:usable].reshape(-1, channels), sample_rate, channels


class DecodeWavStage:
    """``map_batches`` stage over WAV payloads → per-frame mean |amplitude| in
    exact integer micros (frame of sample i = i·F // n — both engines
    compute the same partition), long output (doc_id, sample_rate, frame,
    energy_micros). A SQL twin replaying the waveform-generation
    arithmetic certifies the chunk walker + PCM decode."""

    def __init__(self, n_frames: int = 8):
        self.F = n_frames

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids, srs, frames, energies = [], [], [], []
        for did, p in zip(batch["doc_id"].to_pylist(), batch["payload"]):
            s, sr, _ch = decode_wav_pcm(p.as_py())
            mono = np.abs(s[:, 0])
            n = len(mono)
            f = np.arange(n, dtype=np.int64) * self.F // n
            for fr in range(self.F):
                m = f == fr
                cnt = int(m.sum())
                e = int(mono[m].sum()) * 1_000_000 // cnt if cnt else 0
                ids.append(int(did))
                srs.append(sr)
                frames.append(fr)
                energies.append(e)
        return pa.table(
            {
                "doc_id": pa.array(ids, type=pa.int64()),
                "sample_rate": pa.array(srs, type=pa.int64()),
                "frame": pa.array(frames, type=pa.int64()),
                "energy_micros": pa.array(energies, type=pa.int64()),
            }
        )


def synthesize_wav_corpus(ds, *, id_col: str = "doc_id"):
    """Deterministic 16-bit PCM mono WAV per doc (sawtooth-ish integer
    waveform, length/rate varying by id, every 4th payload carries a junk
    LIST chunk before data — exercising the chunk walker)."""
    import struct

    def gen(t: pa.Table) -> pa.Table:
        ids = t[id_col].to_numpy()
        payloads = []
        for did in ids:
            did = int(did)
            n = 64 + (did % 5) * 16
            sr = 8000 + (did % 3) * 4000
            i = np.arange(n, dtype=np.int64)
            s = ((did * 13 + i * 7) % 2048 - 1024).astype("<i2")
            data = s.tobytes()
            junk = (
                b"LIST" + struct.pack("<I", 4) + b"INFO" if did % 4 == 0 else b""
            )
            fmt = b"fmt " + struct.pack("<IHHIIHH", 16, 1, 1, sr, sr * 2, 2, 16)
            body = b"WAVE" + fmt + junk + b"data" + struct.pack("<I", len(data)) + data
            payloads.append(b"RIFF" + struct.pack("<I", len(body)) + body)
        return pa.table(
            {
                "doc_id": pa.array([int(x) for x in ids], type=pa.int64()),
                "payload": pa.array(payloads, type=pa.binary()),
            }
        )

    return ds.map_batches(gen, batch_format="pyarrow")

def decode_bmp(payload: bytes) -> tuple[np.ndarray, int, int, int]:
    """REAL image decode for uncompressed Windows BMP (BITMAPINFOHEADER,
    BI_RGB) — the third no-external-library codec leg (stdlib struct +
    numpy), covering the format quirks Netpbm lacks: little-endian
    multi-field headers, 4-byte-padded rows, BOTTOM-UP raster order
    (top-down when height is negative), BGR channel order, a color
    palette (8-bit), and 5-5-5 packed pixels (16-bit). Supports 24-bit
    BGR, 16-bit X1R5G5B5 (channels expanded ``(c << 3) | (c >> 2)``, the
    standard lossless 5→8-bit expansion), and 8-bit paletted. Compressed
    BMPs (BI_RLE*, BI_BITFIELDS) raise. Returns
    ``(rgb int64 [h, w, 3] in top-down row order, w, h, bpp)``."""
    import struct

    if payload[:2] != b"BM":
        raise ValueError("not a BMP payload")
    if len(payload) < 54:
        raise ValueError("truncated BMP header")
    (data_off,) = struct.unpack_from("<I", payload, 10)
    (hdr_size,) = struct.unpack_from("<I", payload, 14)
    if hdr_size < 40:
        raise ValueError(f"unsupported BMP header size {hdr_size}")
    w, h_raw = struct.unpack_from("<ii", payload, 18)
    _planes, bpp = struct.unpack_from("<HH", payload, 26)
    (comp,) = struct.unpack_from("<I", payload, 30)
    if comp != 0:
        raise ValueError(f"compressed BMP (compression={comp}) unsupported")
    top_down = h_raw < 0
    h = -h_raw if top_down else h_raw
    if w <= 0 or h <= 0:
        raise ValueError(f"bad BMP dimensions {w}x{h_raw}")
    row_bytes = (w * bpp + 7) // 8
    stride = (row_bytes + 3) & ~3  # rows padded to 4-byte boundaries
    if len(payload) < data_off + stride * h:
        raise ValueError("truncated BMP raster")
    rows = np.frombuffer(
        payload, dtype=np.uint8, count=stride * h, offset=data_off
    ).reshape(h, stride)
    if not top_down:
        rows = rows[::-1]  # normalize to top-down image coordinates
    if bpp == 24:
        img = rows[:, : w * 3].reshape(h, w, 3)[..., ::-1].astype(np.int64)
    elif bpp == 16:
        v = (
            np.ascontiguousarray(rows[:, : w * 2])
            .view("<u2")
            .reshape(h, w)
            .astype(np.int64)
        )
        img = np.stack(
            [(v >> 10) & 31, (v >> 5) & 31, v & 31], axis=2
        )
        img = (img << 3) | (img >> 2)
    elif bpp == 8:
        (clr_used,) = struct.unpack_from("<I", payload, 46)
        n_pal = clr_used or 256
        pal_off = 14 + hdr_size
        pal = np.frombuffer(
            payload, dtype=np.uint8, count=n_pal * 4, offset=pal_off
        ).reshape(n_pal, 4)[:, [2, 1, 0]]  # stored B,G,R,reserved
        idx = rows[:, :w]
        if int(idx.max(initial=0)) >= n_pal:
            raise ValueError("BMP palette index out of range")
        img = pal[idx].astype(np.int64)
    else:
        raise ValueError(f"unsupported BMP bit depth {bpp}")
    return img, w, h, bpp


class DecodeBmpStage:
    """``map_batches`` stage over BMP payloads → per-image exact-integer stats:
    ``rgb_sum`` certifies every channel byte; ``wsum`` = Σ (r+g+b)·(y·w+x+1)
    over TOP-DOWN coordinates certifies row order (a missed bottom-up flip
    or a padding-byte leak changes it); bpp certifies the variant path."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids, ws, hs, bpps, sums, wsums = [], [], [], [], [], []
        for did, p in zip(batch["doc_id"].to_pylist(), batch["payload"]):
            img, w, h, bpp = decode_bmp(p.as_py())
            ids.append(int(did))
            ws.append(w)
            hs.append(h)
            bpps.append(bpp)
            sums.append(int(img.sum()))
            pix = img.sum(axis=2)  # (h, w) of r+g+b
            weight = np.arange(1, h * w + 1, dtype=np.int64).reshape(h, w)
            wsums.append(int((pix * weight).sum()))
        return pa.table(
            {
                "doc_id": pa.array(ids, type=pa.int64()),
                "px_w": pa.array(ws, type=pa.int64()),
                "px_h": pa.array(hs, type=pa.int64()),
                "bpp": pa.array(bpps, type=pa.int64()),
                "rgb_sum": pa.array(sums, type=pa.int64()),
                "wsum": pa.array(wsums, type=pa.int64()),
            }
        )


def synthesize_bmp_corpus(ds, *, id_col: str = "doc_id"):
    """Deterministic BMP payload per doc, cycling the three supported
    variants (doc_id % 4: 1 → 16-bit 555, 2 → 8-bit paletted, else
    24-bit BGR), bottom-up normally and top-down (negative height) when
    doc_id % 5 == 0, with width chosen so row padding varies 0-3 bytes.
    Pixel arithmetic is defined in top-down IMAGE coordinates and written
    in file row order, so the SQL twin replays the arithmetic without
    parsing and a missed orientation flip breaks the hash."""
    import struct

    def gen(t: pa.Table) -> pa.Table:
        ids = t[id_col].to_numpy()
        payloads = []
        for did in ids:
            did = int(did)
            w, h = 3 + did % 4, 2 + did % 3
            top_down = did % 5 == 0
            y, x = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
            if did % 4 == 1:  # 16-bit X1R5G5B5
                bpp = 16
                v16 = ((did * 11 + y * 6 + x * 2) % 32768).astype("<u2")
                raster = [v16[r].tobytes() for r in range(h)]
            elif did % 4 == 2:  # 8-bit paletted
                bpp = 8
                idx = ((did + y * w + x) % 256).astype(np.uint8)
                raster = [idx[r].tobytes() for r in range(h)]
            else:  # 24-bit BGR
                bpp = 24
                c = np.arange(3)
                vv = (
                    (did * 7 + y[..., None] * 5 + x[..., None] * 3 + c * 9) % 256
                ).astype(np.uint8)  # [..., (B, G, R)]
                raster = [vv[r].tobytes() for r in range(h)]
            stride = ((w * bpp + 7) // 8 + 3) & ~3
            rows = [r + b"\xaa" * (stride - len(r)) for r in raster]
            if not top_down:
                rows = rows[::-1]
            palette = (
                b"".join(
                    bytes([(i * 3) % 256, (i * 5) % 256, (i * 7) % 256, 0])
                    for i in range(256)
                )
                if bpp == 8
                else b""
            )
            data_off = 54 + len(palette)
            raster_b = b"".join(rows)
            header = (
                b"BM"
                + struct.pack("<IHHI", data_off + len(raster_b), 0, 0, data_off)
                + struct.pack(
                    "<IiiHHIIiiII",
                    40, w, -h if top_down else h, 1, bpp, 0,
                    len(raster_b), 2835, 2835, 256 if bpp == 8 else 0, 0,
                )
            )
            payloads.append(header + palette + raster_b)
        return pa.table(
            {
                "doc_id": pa.array([int(i) for i in ids], type=pa.int64()),
                "payload": pa.array(payloads, type=pa.binary()),
            }
        )

    return ds.map_batches(gen, batch_format="pyarrow")

def encode_qoi(px: np.ndarray, channels: int = 3) -> bytes:
    """REAL QOI encoder (qoiformat.org spec, public domain byte layout):
    px is uint8 [h, w, 4] (alpha 255 for 3-channel images); emits the full
    op vocabulary — RUN, INDEX (the (3r+5g+7b+11a) % 64 color cache),
    DIFF (2-bit channel deltas), LUMA (green-anchored deltas), RGB/RGBA.
    Paired with :func:`decode_qoi`; symmetric-bug risk is covered by the
    fixed spec byte vectors in tests/test_stages.py."""
    import struct

    h, w, _ = px.shape
    out = bytearray(b"qoif" + struct.pack(">IIBB", w, h, channels, 0))
    index = [(0, 0, 0, 0)] * 64
    prev = (0, 0, 0, 255)
    run = 0
    flat = px.reshape(-1, 4)
    for p in map(tuple, flat.tolist()):
        if p == prev:
            run += 1
            if run == 62:
                out.append(0xC0 | (run - 1))
                run = 0
            continue
        if run:
            out.append(0xC0 | (run - 1))
            run = 0
        r, g, b, a = p
        ih = (r * 3 + g * 5 + b * 7 + a * 11) % 64
        if index[ih] == p:
            out.append(ih)
        elif a == prev[3]:
            dr = (r - prev[0] + 128) % 256 - 128
            dg = (g - prev[1] + 128) % 256 - 128
            db = (b - prev[2] + 128) % 256 - 128
            if -2 <= dr <= 1 and -2 <= dg <= 1 and -2 <= db <= 1:
                out.append(0x40 | ((dr + 2) << 4) | ((dg + 2) << 2) | (db + 2))
            elif -32 <= dg <= 31 and -8 <= dr - dg <= 7 and -8 <= db - dg <= 7:
                out.append(0x80 | (dg + 32))
                out.append(((dr - dg + 8) << 4) | (db - dg + 8))
            else:
                out += bytes((0xFE, r, g, b))
        else:
            out += bytes((0xFF, r, g, b, a))
        index[ih] = p
        prev = p
    if run:
        out.append(0xC0 | (run - 1))
    out += b"\x00" * 7 + b"\x01"
    return bytes(out)


def decode_qoi(payload: bytes) -> tuple[np.ndarray, int, int, int]:
    """REAL QOI decoder — fourth no-external-library codec leg: big-endian
    header, then the sequential op stream (RUN / INDEX / DIFF / LUMA /
    RGB / RGBA) with the running 64-entry color cache, terminated by the
    7×0x00 + 0x01 end marker. Returns ``(rgba int64 [h, w, 4], w, h,
    channels)``. Inherently sequential per image (each op is a delta off
    the previous pixel) — parallelism comes from the map tasks across
    images, not within one."""
    import struct

    if payload[:4] != b"qoif":
        raise ValueError("not a QOI payload")
    w, h, channels, _cs = struct.unpack(">IIBB", payload[4:14])
    if channels not in (3, 4):
        raise ValueError(f"bad QOI channels {channels}")
    n = w * h
    out = np.empty((n, 4), dtype=np.uint8)
    index = [(0, 0, 0, 0)] * 64
    r, g, b, a = 0, 0, 0, 255
    pos, i = 14, 0
    end = len(payload) - 8
    while i < n:
        # the op byte AND its operands must sit strictly before the end
        # marker — a one-op-short stream must raise, never read marker
        # bytes as ops (the off-by-one a review repro caught)
        if pos >= end:
            raise ValueError("truncated QOI stream")
        op = payload[pos]
        pos += 1
        if op == 0xFE:  # RGB
            if pos + 3 > end:
                raise ValueError("truncated QOI stream")
            r, g, b = payload[pos], payload[pos + 1], payload[pos + 2]
            pos += 3
        elif op == 0xFF:  # RGBA
            if pos + 4 > end:
                raise ValueError("truncated QOI stream")
            r, g, b, a = (
                payload[pos], payload[pos + 1], payload[pos + 2],
                payload[pos + 3],
            )
            pos += 4
        elif op >> 6 == 0:  # INDEX
            r, g, b, a = index[op & 0x3F]
        elif op >> 6 == 1:  # DIFF
            r = (r + ((op >> 4) & 3) - 2) % 256
            g = (g + ((op >> 2) & 3) - 2) % 256
            b = (b + (op & 3) - 2) % 256
        elif op >> 6 == 2:  # LUMA
            dg = (op & 0x3F) - 32
            if pos + 1 > end:
                raise ValueError("truncated QOI stream")
            b2 = payload[pos]
            pos += 1
            r = (r + dg + ((b2 >> 4) & 0xF) - 8) % 256
            g = (g + dg) % 256
            b = (b + dg + (b2 & 0xF) - 8) % 256
        else:  # RUN
            run = (op & 0x3F) + 1
            if i + run > n:
                raise ValueError("QOI run past image end")
            out[i : i + run] = (r, g, b, a)
            i += run
            index[(r * 3 + g * 5 + b * 7 + a * 11) % 64] = (r, g, b, a)
            continue
        index[(r * 3 + g * 5 + b * 7 + a * 11) % 64] = (r, g, b, a)
        out[i] = (r, g, b, a)
        i += 1
    if payload[-8:] != b"\x00" * 7 + b"\x01":
        raise ValueError("missing QOI end marker")
    return out.reshape(h, w, 4).astype(np.int64), w, h, channels


class DecodeQoiStage:
    """``map_batches`` stage over QOI payloads → exact-integer stats:
    ``rgba_sum`` certifies every decoded channel, ``wsum`` (position-
    weighted) certifies op-stream ordering (a run emitted one pixel short
    or an index cache slot off changes it)."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids, ws, hs, chs, sums, wsums = [], [], [], [], [], []
        for did, p in zip(batch["doc_id"].to_pylist(), batch["payload"]):
            img, w, h, ch = decode_qoi(p.as_py())
            ids.append(int(did))
            ws.append(w)
            hs.append(h)
            chs.append(ch)
            sums.append(int(img.sum()))
            pix = img.sum(axis=2).reshape(-1)
            weight = np.arange(1, h * w + 1, dtype=np.int64)
            wsums.append(int((pix * weight).sum()))
        return pa.table(
            {
                "doc_id": pa.array(ids, type=pa.int64()),
                "px_w": pa.array(ws, type=pa.int64()),
                "px_h": pa.array(hs, type=pa.int64()),
                "channels": pa.array(chs, type=pa.int64()),
                "rgba_sum": pa.array(sums, type=pa.int64()),
                "wsum": pa.array(wsums, type=pa.int64()),
            }
        )


def synthesize_qoi_corpus(ds, *, id_col: str = "doc_id"):
    """Deterministic QOI payload per doc, pixel arithmetic chosen so the
    encoder emits EVERY op across the corpus: 5-pixel constant segments
    (RUN), +1-step segments (DIFF), green-anchored +8/+9/+9 segments
    (LUMA), a 2-segment color cycle (INDEX re-hits), big jumps at segment
    boundaries (RGB), and per-segment alpha on odd docs (RGBA, 4-channel).
    The SQL twin replays the closed-form pixel arithmetic without
    parsing, so a decode divergence anywhere in the op stream breaks the
    hash."""

    def gen(t: pa.Table) -> pa.Table:
        ids = t[id_col].to_numpy()
        payloads = []
        for did in ids:
            did = int(did)
            w, h = 4 + did % 3, 3 + did % 2
            i = np.arange(w * h, dtype=np.int64)
            seg, j = i // 5, i % 5
            mode = seg % 3
            r = (did * 7 + (seg % 2) * 37
                 + np.where(mode == 1, j, np.where(mode == 2, 8 * j, 0))) % 256
            g = (did * 3 + (seg % 2) * 61 + np.where(mode == 2, 9 * j, 0)) % 256
            b = (did * 13 + (seg % 2) * 29
                 + np.where(mode == 1, j, np.where(mode == 2, 9 * j, 0))) % 256
            ch = 3 if did % 2 == 0 else 4
            a = (np.full_like(i, 255) if ch == 3
                 else 128 + (did + seg * 17) % 128)
            px = np.stack([r, g, b, a], axis=1).astype(np.uint8).reshape(h, w, 4)
            payloads.append(encode_qoi(px, channels=ch))
        return pa.table(
            {
                "doc_id": pa.array([int(x) for x in ids], type=pa.int64()),
                "payload": pa.array(payloads, type=pa.binary()),
            }
        )

    return ds.map_batches(gen, batch_format="pyarrow")
