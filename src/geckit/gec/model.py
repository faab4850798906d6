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
from ..textcore import Sentence
from .losses import _MAX_NLL
from .vocab import BOS_ID, EOS_ID, PAD_ID, Vocab

MODEL_FORMAT = "gec-seq2seq"
MODEL_VERSION = 1


@dataclass(frozen=True, slots=True)
class ModelConfig:
    embed_dim: int = 32
    hidden_dim: int = 64
    attn_dim: int | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.embed_dim < 1 or self.hidden_dim < 1:
            raise ConfigError("embed_dim and hidden_dim must be positive")
        if self.attn_dim is not None and self.attn_dim < 1:
            raise ConfigError("attn_dim must be positive when set")

    @property
    def attention_dim(self) -> int:
        return self.hidden_dim if self.attn_dim is None else self.attn_dim


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _gru_step(p: dict, prefix: str, x: np.ndarray, h_prev: np.ndarray):
    az = x @ p[f"{prefix}_Wxz"] + h_prev @ p[f"{prefix}_Whz"] + p[f"{prefix}_bz"]
    z = _sigmoid(az)
    ar = x @ p[f"{prefix}_Wxr"] + h_prev @ p[f"{prefix}_Whr"] + p[f"{prefix}_br"]
    r = _sigmoid(ar)
    rh = r * h_prev
    an = x @ p[f"{prefix}_Wxn"] + rh @ p[f"{prefix}_Whn"] + p[f"{prefix}_bn"]
    n = np.tanh(an)
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
    """Everything decoding needs from one encoded batch."""

    henc: np.ndarray  # (B, S, H)
    kproj: np.ndarray  # (B, S, A)
    src_mask: np.ndarray  # (B, S)
    s0: np.ndarray  # (B, H)


class Seq2SeqModel:
    """Sentence corrector mapping a source sentence to a corrected one."""

    def __init__(self, vocab: Vocab, config: ModelConfig | None = None):
        self.vocab = vocab
        self.config = config or ModelConfig()
        v, e, h = len(vocab), self.config.embed_dim, self.config.hidden_dim
        a = self.config.attention_dim
        rng = np.random.default_rng(self.config.seed)
        shapes: dict[str, tuple[int, ...]] = {"emb": (v, e)}
        for side in ("enc", "dec"):
            for gate in ("z", "r", "n"):
                shapes[f"{side}_Wx{gate}"] = (e, h)
                shapes[f"{side}_Wh{gate}"] = (h, h)
                shapes[f"{side}_b{gate}"] = (h,)
        shapes.update(
            init_W=(h, h),
            init_b=(h,),
            attn_Wq=(h, a),
            attn_Wk=(h, a),
            attn_v=(a,),
            comb_W=(2 * h, h),
            comb_b=(h,),
            out_W=(h, v),
            out_b=(v,),
        )
        self.params: dict[str, np.ndarray] = {}
        for name in sorted(shapes):
            shape = shapes[name]
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
        h = np.zeros((batch, self.config.hidden_dim))
        states = np.zeros((batch, steps, self.config.hidden_dim))
        caches = []
        for t in range(steps):
            x = p["emb"][src_ids[:, t]]
            h_new, cache = _gru_step(p, "enc", x, h)
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
        henc, kproj, s0, _ = self._encode(src_ids, src_mask)
        return EncoderState(henc=henc, kproj=kproj, src_mask=src_mask, s0=s0)

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

    def loss_and_grads(
        self,
        sources: list[Sentence],
        targets: list[Sentence],
        sentence_scale: np.ndarray | None = None,
    ):
        """Per-sentence summed NLL and gradients of sum_i scale_i * nll_i.

        scale defaults to 1/B, making the objective the batch mean.
        Returns (nll (B,), grads, clamped_step_count).
        """
        p = self.params
        batch = len(sources)
        if len(targets) != batch:
            raise ConfigError(f"{batch} sources for {len(targets)} targets")
        scale = np.full(batch, 1.0 / batch) if sentence_scale is None else np.asarray(sentence_scale)
        if scale.shape != (batch,):
            raise ConfigError(f"scale shape {scale.shape} does not match batch {batch}")
        src_ids, src_mask = self.source_arrays(sources)
        tgt_in, tgt_out, tgt_mask = self.target_arrays(targets)
        henc, kproj, s0, enc_cache = self._encode(src_ids, src_mask)
        steps = tgt_in.shape[1]
        s = s0
        dec_caches = []
        nll = np.zeros(batch)
        dlogits_steps = []
        clamped = 0
        for t in range(steps):
            x = p["emb"][tgt_in[:, t]]
            s, gru_cache = _gru_step(p, "dec", x, s)
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
        self._encode_backward(grads, dhenc, dkproj, ds0, src_mask, enc_cache)
        return nll, grads, clamped

    def _encode_backward(self, grads, dhenc, dkproj, ds0, src_mask, enc_cache):
        p = self.params
        batch, steps, h_dim = dhenc.shape
        henc_states = np.empty((batch, steps, h_dim))
        # Recompute the stored states from caches to fold in attn_Wk grads.
        # caches[t] holds h_prev; the state after step t is the merged h.
        caches = enc_cache["caches"]
        for t in range(steps):
            x, h_prev, z, r, n, rh = caches[t]
            h_new = (1.0 - z) * n + z * h_prev
            m = src_mask[:, t : t + 1]
            henc_states[:, t, :] = m * h_new + (1.0 - m) * h_prev
        flat_states = henc_states.reshape(batch * steps, h_dim)
        grads["attn_Wk"] += flat_states.T @ dkproj.reshape(batch * steps, -1)
        dhenc = dhenc + dkproj @ p["attn_Wk"].T
        ds0_pre = ds0 * (1.0 - enc_cache["s0"] ** 2)
        grads["init_W"] += enc_cache["h_final"].T @ ds0_pre
        grads["init_b"] += ds0_pre.sum(axis=0)
        dh = ds0_pre @ p["init_W"].T
        src_ids = enc_cache["src_ids"]
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
        s_new, _ = _gru_step(p, "dec", x, s)
        context, _ = self._attend(s_new, enc.henc, enc.kproj, enc.src_mask)
        logits, _ = self._output(s_new, context)
        return _log_softmax(logits), s_new

    def step_distribution(self, enc: EncoderState, s: np.ndarray, token_ids: np.ndarray):
        """Probability rows (each sums to 1) for inspection and tests."""
        logp, s_new = self.decode_step(enc, s, token_ids)
        return np.exp(logp), s_new

    # --- parameter plumbing -------------------------------------------------

    def flat_params(self) -> np.ndarray:
        return np.concatenate([self.params[name].ravel() for name in sorted(self.params)])

    def set_flat_params(self, flat: np.ndarray) -> None:
        offset = 0
        for name in sorted(self.params):
            size = self.params[name].size
            self.params[name] = flat[offset : offset + size].reshape(self.params[name].shape).copy()
            offset += size
        if offset != flat.size:
            raise ConfigError(f"flat vector has {flat.size} values, expected {offset}")

    def num_params(self) -> int:
        return sum(arr.size for arr in self.params.values())

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
        (directory / "meta.json").write_text(
            json.dumps(meta, sort_keys=True, indent=2) + "\n", encoding="utf-8"
        )
        np.save(directory / "params.npy", self.flat_params())

    @classmethod
    def load(cls, directory: str | Path) -> "Seq2SeqModel":
        directory = Path(directory)
        name = str(directory / "meta.json")
        try:
            meta = json.loads((directory / "meta.json").read_text(encoding="utf-8"))
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
            and not (key == "attn_dim" and value is None)
        ]
        if bad:
            raise FormatError(
                f"config values for {sorted(bad)} must be non-negative integers", name=name
            )
        vocab = meta.get("vocab")
        if not isinstance(vocab, list) or not all(isinstance(t, str) for t in vocab):
            raise FormatError("vocab must be a list of strings", name=name)
        model = cls(Vocab(vocab), ModelConfig(**config))
        params = directory / "params.npy"
        try:
            flat = np.load(params)
        except (ValueError, EOFError) as exc:
            raise FormatError(f"not a parameter array: {exc}", name=str(params)) from exc
        if flat.shape != (model.num_params(),) or flat.dtype.kind != "f":
            raise FormatError(
                f"expected {model.num_params()} float parameters, got shape {flat.shape}",
                name=str(params),
            )
        model.set_flat_params(flat)
        return model
