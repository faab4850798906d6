"""Recurrent encoder-decoder with additive attention, in plain numpy.

Gated recurrent units on both sides, float64 throughout, explicit
backward passes. The decoder attends over encoder states after its own
recurrence: the attention query is the current decoder state, and the
context vector feeds the output projection for that step.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from ..errors import ConfigError, FormatError
from ..judge import MAX_ARRAY_SIZE, sigmoid
from ..textcore import Sentence, read_text, replace_file, write_json
from ..losses import PROB_FLOOR
from .vocab import BOS_ID, EOS_ID, PAD_ID, Vocab

MODEL_FORMAT = "gec-seq2seq"
MODEL_VERSION = 2
# The cross-entropy of a step whose gold probability is below PROB_FLOOR.
_MAX_NLL = -math.log(PROB_FLOOR)


@dataclass(frozen=True, slots=True)
class ModelConfig:
    embed_dim: int = 32
    hidden_dim: int = 64
    seed: int = 0

    def __post_init__(self) -> None:
        if self.embed_dim < 1 or self.hidden_dim < 1:
            raise ConfigError("embed_dim and hidden_dim must be positive")


def _gru_weights(p: dict, prefix: str) -> tuple[np.ndarray, ...]:
    """One GRU's weights for the fused step: [Wxz|Wxr|Wxn], [Whz|Whr], [bz|br], Whn, bn.

    Built once per forward pass, so the parameters keep their per-gate
    names. Each column of a fused product is computed as the per-gate
    product computes it, so the fusion changes no bits.
    """
    names = ("Wxz", "Wxr", "Wxn", "Whz", "Whr", "Whn", "bz", "br", "bn")
    g = {name: p[f"{prefix}_{name}"] for name in names}
    return (
        np.concatenate([g["Wxz"], g["Wxr"], g["Wxn"]], axis=1),
        np.concatenate([g["Whz"], g["Whr"]], axis=1),
        np.concatenate([g["bz"], g["br"]]),
        g["Whn"],
        g["bn"],
    )


def _gru_step(fused: tuple[np.ndarray, ...], x: np.ndarray, h_prev: np.ndarray):
    wx, wh_zr, b_zr, whn, bn = fused
    hd = h_prev.shape[1]
    gx = x @ wx
    zr = sigmoid(gx[:, : 2 * hd] + h_prev @ wh_zr + b_zr)
    z, r = zr[:, :hd], zr[:, hd:]
    rh = r * h_prev
    n = np.tanh(gx[:, 2 * hd :] + rh @ whn + bn)
    h = (1.0 - z) * n + z * h_prev
    return h, (x, h_prev, z, r, n, rh)


def _gru_backward(p: dict, grads: dict, prefix: str, dh: np.ndarray, cache):
    x, h_prev, z, r, n, rh = cache
    dz = dh * (h_prev - n)
    dn = dh * (1.0 - z)
    dh_prev = dh * z
    dan = dn * (1.0 - n * n)
    grads[f"{prefix}_Wxn"] += x.T @ dan
    grads[f"{prefix}_Whn"] += rh.T @ dan
    grads[f"{prefix}_bn"] += dan.sum(axis=0)
    dx = dan @ p[f"{prefix}_Wxn"].T
    drh = dan @ p[f"{prefix}_Whn"].T
    dr = drh * h_prev
    dh_prev += drh * r
    dar = dr * r * (1.0 - r)
    grads[f"{prefix}_Wxr"] += x.T @ dar
    grads[f"{prefix}_Whr"] += h_prev.T @ dar
    grads[f"{prefix}_br"] += dar.sum(axis=0)
    dx += dar @ p[f"{prefix}_Wxr"].T
    dh_prev += dar @ p[f"{prefix}_Whr"].T
    daz = dz * z * (1.0 - z)
    grads[f"{prefix}_Wxz"] += x.T @ daz
    grads[f"{prefix}_Whz"] += h_prev.T @ daz
    grads[f"{prefix}_bz"] += daz.sum(axis=0)
    dx += daz @ p[f"{prefix}_Wxz"].T
    dh_prev += daz @ p[f"{prefix}_Whz"].T
    return dx, dh_prev


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


@dataclass
class EncoderState:
    """Everything decoding needs from one encoded batch.

    It holds for the parameters it was encoded with: dec_gru is the
    decoder's gate-fused weights, and cache the encoder's backward cache.
    """

    henc: np.ndarray  # (B, S, H)
    kproj: np.ndarray  # (B, S, A)
    src_mask: np.ndarray  # (B, S)
    s0: np.ndarray  # (B, H)
    dec_gru: tuple[np.ndarray, ...]
    cache: dict


def param_shapes(v: int, config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Every parameter's shape for a vocabulary of v tokens; each must fit numpy."""
    e, h = config.embed_dim, config.hidden_dim
    shapes: dict[str, tuple[int, ...]] = {"emb": (v, e)}
    for side in ("enc", "dec"):
        for gate in ("z", "r", "n"):
            shapes[f"{side}_Wx{gate}"] = (e, h)
            shapes[f"{side}_Wh{gate}"] = (h, h)
            shapes[f"{side}_b{gate}"] = (h,)
    shapes.update(
        init_W=(h, h),
        init_b=(h,),
        attn_Wq=(h, h),
        attn_Wk=(h, h),
        attn_v=(h,),
        comb_W=(2 * h, h),
        comb_b=(h,),
        out_W=(h, v),
        out_b=(v,),
    )
    for name, shape in shapes.items():
        if math.prod(shape) > MAX_ARRAY_SIZE:
            raise ConfigError(f"parameter {name} of shape {shape} is too large to allocate")
    return shapes


class Seq2SeqModel:
    """Sentence corrector mapping a source sentence to a corrected one."""

    def __init__(self, vocab: Vocab, config: ModelConfig):
        self.vocab = vocab
        self.config = config
        rng = np.random.default_rng(self.config.seed)
        shapes = param_shapes(len(vocab), self.config)
        self.params: dict[str, np.ndarray] = {}
        for name, shape in sorted(shapes.items()):
            if name == "emb":
                self.params[name] = rng.uniform(-0.1, 0.1, shape)
            elif len(shape) == 1:
                self.params[name] = np.zeros(shape)
            else:
                limit = math.sqrt(6.0 / (shape[0] + shape[1]))
                self.params[name] = rng.uniform(-limit, limit, shape)

    # --- batching --------------------------------------------------------

    def source_arrays(self, sources: list[Sentence]) -> tuple[np.ndarray, np.ndarray]:
        width = max(1, max((len(s) for s in sources), default=1))
        ids = np.full((len(sources), width), PAD_ID, dtype=np.int64)
        mask = np.zeros((len(sources), width))
        for i, sentence in enumerate(sources):
            enc = self.vocab.encode(sentence)
            ids[i, : len(enc)] = enc
            mask[i, : len(enc)] = 1.0
        return ids, mask

    def target_arrays(self, targets: list[Sentence]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        width = max(len(t) for t in targets) + 1  # every row ends with EOS
        tgt_in = np.full((len(targets), width), PAD_ID, dtype=np.int64)
        tgt_out = np.full((len(targets), width), PAD_ID, dtype=np.int64)
        mask = np.zeros((len(targets), width))
        for i, sentence in enumerate(targets):
            enc = self.vocab.encode(sentence)
            row = [BOS_ID] + enc
            tgt_in[i, : len(row)] = row
            tgt_out[i, : len(enc)] = enc
            tgt_out[i, len(enc)] = EOS_ID
            mask[i, : len(enc) + 1] = 1.0
        return tgt_in, tgt_out, mask

    # --- encoder ---------------------------------------------------------

    def _encode(self, src_ids: np.ndarray, src_mask: np.ndarray):
        p = self.params
        batch, steps = src_ids.shape
        fused = _gru_weights(p, "enc")
        h = np.zeros((batch, self.config.hidden_dim))
        states = np.zeros((batch, steps, self.config.hidden_dim))
        caches = []
        for t in range(steps):
            x = p["emb"][src_ids[:, t]]
            h_new, cache = _gru_step(fused, x, h)
            m = src_mask[:, t : t + 1]
            h = m * h_new + (1.0 - m) * h
            states[:, t, :] = h
            caches.append(cache)
        s0_pre = h @ p["init_W"] + p["init_b"]
        s0 = np.tanh(s0_pre)
        kproj = states @ p["attn_Wk"]
        return states, kproj, s0, {"caches": caches, "src_ids": src_ids, "s0": s0, "h_final": h}

    def encode(self, sources: list[Sentence]) -> EncoderState:
        src_ids, src_mask = self.source_arrays(sources)
        henc, kproj, s0, cache = self._encode(src_ids, src_mask)
        return EncoderState(henc, kproj, src_mask, s0, _gru_weights(self.params, "dec"), cache)

    # --- attention -------------------------------------------------------

    def _attend(self, s: np.ndarray, henc: np.ndarray, kproj: np.ndarray, src_mask: np.ndarray):
        p = self.params
        q = s @ p["attn_Wq"]
        u = np.tanh(q[:, None, :] + kproj)
        e = u @ p["attn_v"]
        e = np.where(src_mask > 0, e, -1e9)
        e = e - e.max(axis=1, keepdims=True)
        exp = np.exp(e)
        alpha = exp / exp.sum(axis=1, keepdims=True)
        context = (alpha[:, :, None] * henc).sum(axis=1)
        return context, (s, u, alpha)

    def _attend_backward(self, grads: dict, dcontext: np.ndarray, henc: np.ndarray, cache):
        p = self.params
        s, u, alpha = cache
        dalpha = (dcontext[:, None, :] * henc).sum(axis=2)
        dhenc = alpha[:, :, None] * dcontext[:, None, :]
        de = alpha * (dalpha - (dalpha * alpha).sum(axis=1, keepdims=True))
        grads["attn_v"] += (u * de[:, :, None]).sum(axis=(0, 1))
        du = de[:, :, None] * p["attn_v"]
        da = du * (1.0 - u * u)
        dq = da.sum(axis=1)
        grads["attn_Wq"] += s.T @ dq
        ds = dq @ p["attn_Wq"].T
        return ds, dhenc, da  # da still needs folding into attn_Wk / henc

    # --- output head -----------------------------------------------------

    def _output(self, s: np.ndarray, context: np.ndarray):
        p = self.params
        o_in = np.concatenate([s, context], axis=1)
        o = np.tanh(o_in @ p["comb_W"] + p["comb_b"])
        logits = o @ p["out_W"] + p["out_b"]
        return logits, (o_in, o)

    def _output_backward(self, grads: dict, dlogits: np.ndarray, cache):
        p = self.params
        o_in, o = cache
        grads["out_W"] += o.T @ dlogits
        grads["out_b"] += dlogits.sum(axis=0)
        do = dlogits @ p["out_W"].T
        dao = do * (1.0 - o * o)
        grads["comb_W"] += o_in.T @ dao
        grads["comb_b"] += dao.sum(axis=0)
        do_in = dao @ p["comb_W"].T
        h = self.config.hidden_dim
        return do_in[:, :h], do_in[:, h:]

    # --- teacher-forced loss and gradients --------------------------------

    def loss_and_grads(self, enc: EncoderState, targets: list[Sentence], sentence_scale: np.ndarray):
        """Per-sentence summed NLL and gradients of sum_i scale_i * nll_i.

        enc is encode(sources) under the current parameters.
        Returns (nll (B,), grads, clamped_step_count).
        """
        p = self.params
        batch = len(enc.s0)
        if len(targets) != batch:
            raise ConfigError(f"{batch} sources for {len(targets)} targets")
        scale = np.asarray(sentence_scale)
        if scale.shape != (batch,):
            raise ConfigError(f"scale shape {scale.shape} does not match batch {batch}")
        henc, kproj, src_mask, s0 = enc.henc, enc.kproj, enc.src_mask, enc.s0
        tgt_in, tgt_out, tgt_mask = self.target_arrays(targets)
        steps = tgt_in.shape[1]
        s = s0
        dec_caches = []
        nll = np.zeros(batch)
        dlogits_steps = []
        clamped = 0
        for t in range(steps):
            x = p["emb"][tgt_in[:, t]]
            s, gru_cache = _gru_step(enc.dec_gru, x, s)
            context, attn_cache = self._attend(s, henc, kproj, src_mask)
            logits, out_cache = self._output(s, context)
            logp = _log_softmax(logits)
            golds = tgt_out[:, t]
            step_mask = tgt_mask[:, t]
            gold_logp = logp[np.arange(batch), golds]
            step_nll = -gold_logp
            over = step_nll > _MAX_NLL
            if np.any(over):
                clamped += int((over & (step_mask > 0)).sum())
                step_nll = np.where(over, _MAX_NLL, step_nll)
            nll += step_nll * step_mask
            dlogits = np.exp(logp)
            dlogits[np.arange(batch), golds] -= 1.0
            dlogits *= (step_mask * np.where(over, 0.0, 1.0) * scale)[:, None]
            dlogits_steps.append(dlogits)
            dec_caches.append((gru_cache, attn_cache, out_cache))
        grads = {name: np.zeros_like(arr) for name, arr in p.items()}
        ds_next = np.zeros_like(s0)
        dhenc = np.zeros_like(henc)
        dkproj = np.zeros_like(kproj)
        for t in reversed(range(steps)):
            gru_cache, attn_cache, out_cache = dec_caches[t]
            ds, dcontext = self._output_backward(grads, dlogits_steps[t], out_cache)
            ds += ds_next
            ds_attn, dhenc_t, da = self._attend_backward(grads, dcontext, henc, attn_cache)
            ds += ds_attn
            dhenc += dhenc_t
            dkproj += da
            dx, ds_next = _gru_backward(p, grads, "dec", ds, gru_cache)
            np.add.at(grads["emb"], tgt_in[:, t], dx)
        ds0 = ds_next
        self._encode_backward(grads, henc, dhenc, dkproj, ds0, src_mask, enc.cache)
        return nll, grads, clamped

    def _encode_backward(self, grads, henc, dhenc, dkproj, ds0, src_mask, enc_cache):
        p = self.params
        batch, steps, h_dim = dhenc.shape
        flat_states = henc.reshape(batch * steps, h_dim)
        grads["attn_Wk"] += flat_states.T @ dkproj.reshape(batch * steps, -1)
        dhenc = dhenc + dkproj @ p["attn_Wk"].T
        ds0_pre = ds0 * (1.0 - enc_cache["s0"] ** 2)
        grads["init_W"] += enc_cache["h_final"].T @ ds0_pre
        grads["init_b"] += ds0_pre.sum(axis=0)
        dh = ds0_pre @ p["init_W"].T
        src_ids, caches = enc_cache["src_ids"], enc_cache["caches"]
        for t in reversed(range(steps)):
            dh = dh + dhenc[:, t, :]
            m = src_mask[:, t : t + 1]
            dh_new = dh * m
            dh_carry = dh * (1.0 - m)
            dx, dh_prev = _gru_backward(p, grads, "enc", dh_new, caches[t])
            np.add.at(grads["emb"], src_ids[:, t], dx)
            dh = dh_prev + dh_carry

    # --- single-step decoding interface ------------------------------------

    def decode_step(self, enc: EncoderState, s: np.ndarray, token_ids: np.ndarray):
        """One decoder step: returns (log-probabilities (B, V), next state)."""
        p = self.params
        x = p["emb"][token_ids]
        s_new, _ = _gru_step(enc.dec_gru, x, s)
        context, _ = self._attend(s_new, enc.henc, enc.kproj, enc.src_mask)
        logits, _ = self._output(s_new, context)
        return _log_softmax(logits), s_new

    # --- parameter plumbing -------------------------------------------------

    def flat_params(self) -> np.ndarray:
        return np.concatenate([self.params[name].ravel() for name in sorted(self.params)])

    def set_flat_params(self, flat: np.ndarray) -> None:
        """Every parameter from flat, in sorted name order: needs only vocab and config."""
        expected = self.num_params()
        if flat.size != expected:
            raise ConfigError(f"flat vector has {flat.size} values, expected {expected}")
        self.params, offset = {}, 0
        for name, shape in sorted(param_shapes(len(self.vocab), self.config).items()):
            size = math.prod(shape)
            self.params[name] = flat[offset : offset + size].reshape(shape).copy()
            offset += size

    def num_params(self) -> int:
        shapes = param_shapes(len(self.vocab), self.config)
        return sum(math.prod(shape) for shape in shapes.values())

    # --- persistence --------------------------------------------------------

    def save(self, directory: str | Path) -> None:
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        meta = {
            "format": MODEL_FORMAT,
            "version": MODEL_VERSION,
            "config": asdict(self.config),
            "vocab": list(self.vocab.tokens),
        }
        # Parameters first: a meta.json present means its params.npy is complete.
        # np.save gets an open file, since it appends .npy to a name without it.
        flat = self.flat_params()
        replace_file(directory / "params.npy", lambda fh: np.save(fh, flat))
        write_json(directory / "meta.json", meta)

    @classmethod
    def load(cls, directory: str | Path) -> "Seq2SeqModel":
        directory = Path(directory)
        name = str(directory / "meta.json")
        try:
            meta = json.loads(read_text(directory / "meta.json"))
        except json.JSONDecodeError as exc:
            raise FormatError("not a JSON metadata file", name=name, line=exc.lineno) from exc
        if not isinstance(meta, dict) or meta.get("format") != MODEL_FORMAT:
            raise FormatError("unrecognized model format", name=name)
        if meta.get("version") != MODEL_VERSION:
            raise FormatError(f"unsupported model version {meta.get('version')}", name=name)
        config = meta.get("config")
        keys = sorted(f.name for f in fields(ModelConfig))
        if not isinstance(config, dict) or sorted(config) != keys:
            raise FormatError(f"config must have exactly the keys {keys}", name=name)
        bad = [
            key
            for key, value in config.items()
            if not (isinstance(value, int) and not isinstance(value, bool) and value >= 0)
        ]
        if bad:
            raise FormatError(
                f"config values for {sorted(bad)} must be non-negative integers", name=name
            )
        tokens = meta.get("vocab")
        if not isinstance(tokens, list) or not all(isinstance(t, str) for t in tokens):
            raise FormatError("vocab must be a list of strings", name=name)
        # Built from the file alone: no random initialization to overwrite.
        model = cls.__new__(cls)
        try:
            model.vocab, model.config = Vocab(tokens), ModelConfig(**config)
            # Every size is checked before any parameter exists, so a corrupt one allocates nothing.
            expected = model.num_params()
        except ConfigError as exc:
            raise FormatError(str(exc), name=name) from exc
        params = directory / "params.npy"
        try:
            flat = np.load(params)
        except (ValueError, EOFError) as exc:
            raise FormatError(f"not a parameter array: {exc}", name=str(params)) from exc
        if flat.shape != (expected,) or flat.dtype != np.float64:
            raise FormatError(
                f"meta.json implies {expected} float64 parameters,"
                f" got shape {flat.shape} and dtype {flat.dtype}",
                name=str(params),
            )
        if not np.all(np.isfinite(flat)):
            raise FormatError("non-finite parameter values", name=str(params))
        model.set_flat_params(flat)
        return model
