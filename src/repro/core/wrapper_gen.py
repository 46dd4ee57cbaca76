"""IPM's wrapper generator (paper Section III-A, Fig. 2).

Generates interposition wrappers for an API object from a list of call
names plus per-call hooks.  The generated wrapper has exactly the
anatomy of Fig. 2::

    cudaError_t cudaCall(arg1, ...) {
        begin = get_time();
        ret = real_cudaCall(arg1, ...);
        end = get_time();
        UPDATE_DATA(CUDA_CALL_ID, duration);
        return ret;
    }

plus optional *pre*/*post* hooks ("the wrapper allows us to perform
actions before and after the actual call") used for kernel timing and
host-idle separation, and a *refiner* that augments the event
signature with direction suffixes and byte counts.

Each wrapper is *specialized at generation time* for its monitoring
configuration.  Hook-free calls get a fused record path: the
signature's flat slab index in the hash table is cached per call site,
so a steady-state event is a clock read, the real call, a second clock
read, and four list writes — no ``CallStats`` object, no per-event
telemetry call, no overhead-counter writes (call counts and charged
time are derived lazily from the slab's interned counts; see
``repro.core.overhead``).  Wrappers with hooks, tracing or fault
checks keep the fully general path, whose event ordering and
virtual-time charging are bit-identical to the historical
implementation.

Two linkage styles are supported, as in the paper:

* ``dynamic`` — LD_PRELOAD-style: the wrapped callable replaces the
  original name on the proxy;
* ``static`` — ``--wrap foo``: the proxy additionally exposes
  ``__wrap_<name>`` (the wrapper) and ``__real_<name>`` (the original),
  matching the linker convention.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, Optional, Tuple, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.ipm import Ipm

#: refiner result: (name suffix, byte count or None)
Refinement = Tuple[str, Optional[int]]

#: status codes that signal "not finished yet", not a failure — the
#: legitimate return of cudaStreamQuery/cudaEventQuery polling.
_BENIGN_STATUS = {"cudaErrorNotReady", "CUDA_ERROR_NOT_READY"}

#: calls whose *return value* is a previously stored error, not the
#: outcome of this call — error-tagging them would double-count.
_ERROR_QUERY_CALLS = {"cudaGetLastError", "cudaPeekAtLastError"}

#: shared kwargs dict for *args-only wrappers (never written to: hooks
#: and refiners only read their kwargs mapping).
_EMPTY_KWARGS: Dict[str, Any] = {}

#: "no result seen yet" sentinel for the per-wrapper success-identity
#: cache (must not compare identical to any real return value).
_NO_RESULT = object()


def _result_error_name(result: Any) -> Optional[str]:
    """Name of the error code a wrapped call returned, or None.

    Only IntEnum results count — MPI-style wrappers return payloads
    (often plain ints), which must never be mistaken for error codes.
    Tuple results follow the C out-parameter convention: the status is
    the first member.
    """
    code = result
    if type(code) is tuple:
        if not code:
            return None
        code = code[0]
    if (
        isinstance(code, enum.IntEnum)
        and code.value != 0
        and code.name not in _BENIGN_STATUS
    ):
        return code.name
    return None


@dataclass
class WrapperHooks:
    """Per-call customization of the generated wrapper."""

    #: runs before the real call; its return value is passed to post.
    pre: Optional[Callable[[tuple, dict], Any]] = None
    #: runs after the real call: post(pre_result, args, kwargs, result).
    post: Optional[Callable[[Any, tuple, dict, Any], None]] = None
    #: refines the event signature: refine(args, kwargs, result).
    refine: Optional[Callable[[tuple, dict, Any], Refinement]] = None


class InterposedAPI:
    """Proxy carrying the wrapped callables.

    Attribute access falls through to the raw object for anything not
    wrapped, so the proxy is a drop-in replacement.  The raw object
    stays reachable as ``_raw`` — IPM's own internal calls (event
    records for kernel timing, probe synchronizes) go through it to
    avoid monitoring recursion, exactly as a real wrapper calls
    ``real_cudaCall`` directly.
    """

    def __init__(self, raw: Any, domain: str) -> None:
        object.__setattr__(self, "_raw", raw)
        object.__setattr__(self, "_domain", domain)
        object.__setattr__(self, "_wrapped_names", set())

    def __getattr__(self, name: str) -> Any:
        return getattr(object.__getattribute__(self, "_raw"), name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<InterposedAPI {self._domain} over {self._raw!r}>"


def generate_wrappers(
    ipm: "Ipm",
    raw_api: Any,
    names: Iterable[str],
    *,
    domain: str,
    hooks: Optional[Dict[str, WrapperHooks]] = None,
    linkage: str = "dynamic",
    pass_kwargs: bool = True,
) -> InterposedAPI:
    """Build an interposed proxy over ``raw_api`` for ``names``.

    Names absent from the raw object are skipped (a dynamic linker
    only interposes symbols that resolve).

    ``pass_kwargs=False`` generates ``*args``-only wrappers — measurably
    cheaper per event (no empty kwargs dict allocated per call) — and is
    correct for APIs whose call sites are purely positional, like the C
    signatures the CUDA/OpenCL specs mirror.  MPI and the math-library
    domains keep keyword support (``MPI_Send(payload, dest=1)``).
    """
    if linkage not in ("dynamic", "static"):
        raise ValueError(f"unknown linkage {linkage!r}")
    hooks = hooks or {}
    proxy = InterposedAPI(raw_api, domain)
    for name in names:
        real = getattr(raw_api, name, None)
        if not callable(real):
            continue
        wrapper = _make_wrapper(
            ipm, name, real, domain, hooks.get(name), pass_kwargs
        )
        object.__setattr__(proxy, name, wrapper)
        proxy._wrapped_names.add(name)
        if linkage == "static":
            object.__setattr__(proxy, f"__wrap_{name}", wrapper)
            object.__setattr__(proxy, f"__real_{name}", real)
    return proxy


def _make_wrapper(
    ipm: "Ipm",
    name: str,
    real: Callable[..., Any],
    domain: str,
    hk: Optional[WrapperHooks],
    pass_kwargs: bool,
) -> Callable[..., Any]:
    from repro.core.sig import EventSignature

    pre = hk.pre if hk else None
    post = hk.post if hk else None
    refine = hk.refine if hk else None
    sim = ipm.sim
    clock = sim.clock
    table = ipm.table
    overhead = ipm.overhead
    #: fault-injection abort check; None keeps the hot path untouched
    #: (bound at wrapper-creation time, so set ipm.fault_check first).
    fault_check = ipm.fault_check
    detect_errors = name not in _ERROR_QUERY_CALLS
    #: chronological trace ring; created only in Ipm.__init__, so
    #: binding at wrapper-creation time is safe.
    trace = ipm.trace
    ocfg = overhead.config
    entry_cost = ocfg.entry
    exit_cost = ocfg.exit

    #: the wrapper's signature-interning cache — exactly one per
    #: wrapper, registered for invalidation on region transitions.
    #: Plain calls have one possible signature per region, so a
    #: single-element list suffices; refined calls key a dict on the
    #: refiner's (suffix, nbytes) tuple, reused verbatim.  Region is
    #: not part of the key: transitions clear the cache, so a cached
    #: entry is always for the current region.
    cache: Any = {} if refine is not None else []
    ipm.register_sig_cache(cache)

    def first_sight(
        suffix: str, nbytes: Optional[int], duration: float, key: Any
    ) -> EventSignature:
        """Full record path for a signature's first event: registers
        the call's domain, then interns the signature with its stable
        table address."""
        sig = EventSignature(name + suffix, ipm.current_region, nbytes)
        ipm.update(sig, duration, domain=domain)
        idx = table.intern(sig)
        if refine is not None:
            cache[key] = (sig, idx)
        else:
            cache.append((sig, idx))
        return sig

    def generic(args: tuple, kwargs: dict) -> Any:
        """The fully general wrapper body (Fig. 2 anatomy, exact event
        ordering and virtual-time charging of the pre-slab wrappers)."""
        if fault_check is not None:
            fault_check()
        cur = sim._current is not None
        if cur and entry_cost > 0.0:
            sim.sleep(entry_cost)
        pre_result = pre(args, kwargs) if pre is not None else None
        begin = clock._now
        result = real(*args, **kwargs)
        end = clock._now
        if post is not None:
            post(pre_result, args, kwargs, result)
        if refine is not None:
            suffix, nbytes = refine(args, kwargs, result)
        else:
            suffix, nbytes = "", None
        error_name = _result_error_name(result) if detect_errors else None
        if error_name is not None:
            # failing call: error-tagged signature + @CUDA_ERROR region
            # (rare path — no interning, so count it explicitly).
            sig = ipm.record_error(
                name, suffix, error_name, end - begin, nbytes, domain
            )
            overhead.count_call()
        else:
            if refine is not None:
                key = (suffix, nbytes)
                interned = cache.get(key)
            else:
                key = None
                interned = cache[0] if cache else None
            if interned is not None:
                sig = interned[0]
                table.update(sig, end - begin, interned[1])
            else:
                sig = first_sight(suffix, nbytes, end - begin, key)
        if trace is not None:
            from repro.core.trace import TraceRecord

            trace.add(
                TraceRecord(begin, end, sig.name, "host", nbytes,
                            ipm.take_launch_corr())
            )
        if cur and exit_cost > 0.0:
            sim.sleep(exit_cost)
        return result

    fast = (
        pre is None
        and post is None
        and trace is None
        and fault_check is None
    )
    if not fast:
        if pass_kwargs:
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                if not ipm.active:
                    return real(*args, **kwargs)
                return generic(args, kwargs)
        else:
            def wrapper(*args: Any) -> Any:
                if not ipm.active:
                    return real(*args)
                return generic(args, _EMPTY_KWARGS)
    else:
        # -- fused slab record path ------------------------------------
        # Only reachable outside a simulated process (no virtual-time
        # charging possible), with no hooks/trace/fault checks: record
        # = two clock reads + four column writes at the cached index.
        # Accounting (overhead calls/charged, telemetry totals, table
        # version) is derived lazily from these counts.
        counts = table._count
        totals = table._total
        tmins = table._tmin
        tmaxs = table._tmax
        #: identity cache of the last known-successful return value —
        #: API status enums are singletons, so steady-state success
        #: checking is one ``is`` comparison instead of an isinstance
        #: chain per event.
        ok_cell = [_NO_RESULT]

        def fast_miss(result: Any, args: tuple, kwargs: dict,
                      dur: float) -> bool:
            """Classify an unrecognized result; True → error recorded."""
            error_name = _result_error_name(result) if detect_errors else None
            if error_name is None:
                ok_cell[0] = result
                return False
            if refine is not None:
                suffix, nbytes = refine(args, kwargs, result)
            else:
                suffix, nbytes = "", None
            ipm.record_error(name, suffix, error_name, dur, nbytes, domain)
            overhead.count_call()
            return True

        if refine is not None and pass_kwargs:
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                if not ipm.active:
                    return real(*args, **kwargs)
                if sim._current is not None:
                    return generic(args, kwargs)
                begin = clock._now
                result = real(*args, **kwargs)
                dur = clock._now - begin
                if result is not ok_cell[0]:
                    if fast_miss(result, args, kwargs, dur):
                        return result
                key = refine(args, kwargs, result)
                try:
                    idx = cache[key][1]
                except KeyError:
                    first_sight(key[0], key[1], dur, key)
                    return result
                counts[idx] += 1
                totals[idx] += dur
                if dur < tmins[idx]:
                    tmins[idx] = dur
                elif dur > tmaxs[idx]:
                    tmaxs[idx] = dur
                return result
        elif refine is not None:
            def wrapper(*args: Any) -> Any:
                if not ipm.active:
                    return real(*args)
                if sim._current is not None:
                    return generic(args, _EMPTY_KWARGS)
                begin = clock._now
                result = real(*args)
                dur = clock._now - begin
                if result is not ok_cell[0]:
                    if fast_miss(result, args, _EMPTY_KWARGS, dur):
                        return result
                key = refine(args, _EMPTY_KWARGS, result)
                try:
                    idx = cache[key][1]
                except KeyError:
                    first_sight(key[0], key[1], dur, key)
                    return result
                counts[idx] += 1
                totals[idx] += dur
                if dur < tmins[idx]:
                    tmins[idx] = dur
                elif dur > tmaxs[idx]:
                    tmaxs[idx] = dur
                return result
        elif pass_kwargs:
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                if not ipm.active:
                    return real(*args, **kwargs)
                if sim._current is not None:
                    return generic(args, kwargs)
                begin = clock._now
                result = real(*args, **kwargs)
                dur = clock._now - begin
                if result is not ok_cell[0]:
                    if fast_miss(result, args, kwargs, dur):
                        return result
                if cache:
                    idx = cache[0][1]
                    counts[idx] += 1
                    totals[idx] += dur
                    if dur < tmins[idx]:
                        tmins[idx] = dur
                    elif dur > tmaxs[idx]:
                        tmaxs[idx] = dur
                else:
                    first_sight("", None, dur, None)
                return result
        else:
            def wrapper(*args: Any) -> Any:
                if not ipm.active:
                    return real(*args)
                if sim._current is not None:
                    return generic(args, _EMPTY_KWARGS)
                begin = clock._now
                result = real(*args)
                dur = clock._now - begin
                if result is not ok_cell[0]:
                    if fast_miss(result, args, _EMPTY_KWARGS, dur):
                        return result
                if cache:
                    idx = cache[0][1]
                    counts[idx] += 1
                    totals[idx] += dur
                    if dur < tmins[idx]:
                        tmins[idx] = dur
                    elif dur > tmaxs[idx]:
                        tmaxs[idx] = dur
                else:
                    first_sight("", None, dur, None)
                return result

    wrapper.__name__ = name
    wrapper.__qualname__ = f"ipm_wrap.{name}"
    wrapper.__doc__ = f"IPM interposition wrapper for {name} ({domain})."
    wrapper.__wrapped__ = real
    return wrapper
