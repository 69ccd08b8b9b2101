"""Chat-completion backends: live HTTP, and record/replay.

Every backend exposes one operation, ``complete(turns, params) -> str``.  The
live backend speaks the common ``/v1/chat/completions`` wire protocol; the
recording wrapper logs each call with its purpose (see :func:`call_for`), and
the replay backend serves each purpose its logged reply, in any arrival order,
so whole optimization runs can be reproduced byte-for-byte without model access.
``fan_out`` is the one way callers spread independent calls across threads:
they read its results in item order and stop by leaving the loop.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import io
import json
import logging
import os
import threading
import time
import weakref
from abc import ABC, abstractmethod
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence, TextIO

logger = logging.getLogger(__name__)

API_KEY_ENV = "MPO_API_KEY"
BASE_URL_ENV = "MPO_BASE_URL"

_ROLES = ("system", "user", "assistant")
MAX_ATTEMPTS = 3  # tries per live call; see HTTPBackend
_PURPOSE: contextvars.ContextVar[str | None] = contextvars.ContextVar("purpose", default=None)  # see call_for


class BackendError(Exception):
    """Transport or provider failure that survived the retry policy."""


class ReplayMiss(Exception):
    """A call's purpose has no record left, or its record holds another request.

    Deliberately not a :class:`BackendError`: a miss means the run diverged
    from its recording, which must abort rather than be absorbed by
    per-section failure isolation.
    """


@dataclass(frozen=True)
class ChatTurn:
    """One message in a chat-completion request."""

    role: str
    content: str

    def __post_init__(self) -> None:
        if self.role not in _ROLES:
            raise ValueError(f"role must be one of {_ROLES}, got {self.role!r}")
        if not isinstance(self.content, str):
            raise ValueError(f"content must be a string, got {type(self.content).__name__}")

    def to_dict(self) -> dict:
        return {"role": self.role, "content": self.content}


@dataclass(frozen=True)
class GenerationParams:
    """Decoding parameters, recorded alongside every transcript record."""

    temperature: float = 0.0
    max_output_tokens: int = 512
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")
        if self.max_output_tokens < 1:
            raise ValueError("max_output_tokens must be >= 1")

    def to_dict(self) -> dict:
        return asdict(self)

    @functools.cached_property
    def canonical_json(self) -> str:
        """:func:`_params_json` of these params, built once per instance, never shared between
        equal ones (``0`` and ``0.0`` are equal but encode apart); no field."""
        return _params_json(self.to_dict())


# Determinism-biased defaults: temperature 0 everywhere, output budgets sized
# per use (short critiques, longer consolidations and decompositions, one-letter answers).
GRADIENT_PARAMS = GenerationParams(max_output_tokens=512)
CONSOLIDATION_PARAMS = GenerationParams(max_output_tokens=1024)
DECOMPOSE_PARAMS = GenerationParams(max_output_tokens=1024)
SOLVER_PARAMS = GenerationParams(max_output_tokens=64)


try:  # CPython's own SHA-256: OpenSSL's digests without loading OpenSSL (about 3.6 MB)
    from _sha2 import sha256  # 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # 3.10-3.11
    except ImportError:
        from hashlib import sha256  # an interpreter built without its own hashes


def request_digest(turns: Sequence[ChatTurn], params: GenerationParams) -> str:
    """Deterministic content hash of a request, stable across processes."""
    return _encoded_request(turns, params)[0]


def _encoded_request(turns: Sequence[ChatTurn], params: GenerationParams) -> tuple[str, list[tuple[str, str]]]:
    """The request's digest and each turn's role and content as JSON, escaped once. The
    digest is SHA-256 of the canonical ``{"params":...,"turns":[...]}`` (sorted keys, no
    spaces), fed piece by piece so that no copy of the whole request is built."""
    escaped = [(json.dumps(turn.role), json.dumps(turn.content, ensure_ascii=False)) for turn in turns]
    digest = sha256(f'{{"params":{params.canonical_json},"turns":['.encode())
    for index, (role, content) in enumerate(escaped):
        digest.update(b',{"content":' if index else b'{"content":')
        digest.update(content.encode("utf-8"))
        digest.update(f',"role":{role}}}'.encode())
    digest.update(b"]}")
    return digest.hexdigest(), escaped


def _params_json(params: dict) -> str:
    """Canonical params JSON: two requests match only when theirs are equal,
    so ``0`` and ``0.0`` differ, as they do in :func:`request_digest`."""
    return json.dumps(params, sort_keys=True, ensure_ascii=False, separators=(",", ":"))


def call_for(purpose: str | None, call: Callable, /, *args, **kwargs):
    """``call(*args, **kwargs)`` with every backend call in it made for ``purpose``, the key, one call's in a run,
    that the call is logged and replayed by. It runs in a copy of the caller's context, so the purpose ends with it."""
    context = contextvars.copy_context()
    context.run(_PURPOSE.set, purpose)
    return context.run(call, *args, **kwargs)


@contextlib.contextmanager
def fan_out(fn: Callable, items: Iterable, width: int) -> Iterator[Iterator]:
    """Gives the block an iterator over ``fn`` of every item, in item order, at
    most ``width`` calls at a time; the caller stops by leaving its loop.

    ``items`` is read into a list first. Width 1 maps inline on the calling
    thread; wider fan-outs run on threads that each take the next index, so a
    slow item holds up no other and only unread results are kept. An exception
    from ``fn`` is raised at its item, so the prefix read and the point it
    surfaces never depend on the width. Leaving the block by ``break``, an error
    or an interrupt lets no thread take another item and returns once the calls
    in flight have finished; their results are dropped.
    """
    if width < 1:
        raise ValueError("width must be >= 1")
    items = list(items)
    if width == 1:
        yield map(fn, items)
        return
    done: dict[int, tuple] = {}  # (result, exception) by index, until it is read
    cursor, ready = 0, threading.Condition()  # cursor: the next index a thread takes

    def take() -> None:
        nonlocal cursor
        while True:
            with ready:
                index, cursor = cursor, cursor + 1
            if index >= len(items):  # all taken, or moved past the end to stop
                return
            try:
                outcome = fn(items[index]), None
            except BaseException as exc:  # raised to the reader at this item
                outcome = None, exc
            with ready:
                done[index] = outcome
                ready.notify()

    def read(index: int):
        with ready:
            ready.wait_for(lambda: index in done)
            result, error = done.pop(index)
        if error is not None:
            raise error
        return result

    threads = []
    try:
        for _ in range(min(width, len(items))):
            thread = threading.Thread(target=take)
            thread.start()
            threads.append(thread)
        yield map(read, range(len(items)))
    finally:
        with ready:
            cursor = len(items)
        for thread in threads:
            thread.join()


class CriticBackend(ABC):
    """Abstract chat-completion provider.

    ``complete`` is total: it returns the response text or raises a typed
    error.  Implementations must be safe to call from multiple threads.
    """

    name: str = "abstract"
    model: str = ""

    @property
    def identity(self) -> str:
        return f"{self.name}:{self.model}"

    @abstractmethod
    def complete(self, turns: Sequence[ChatTurn], params: GenerationParams) -> str:
        raise NotImplementedError


def _checked_record(line: str) -> dict:
    """A transcript line decoded into its record, or ValueError saying why it is not one."""
    keys = ("request_digest", "request", "params", "response", "timestamp", "purpose", "identity")
    record = json.loads(line)
    if isinstance(record, dict) and not isinstance(record.get("purpose", 0), (str, type(None))):
        raise ValueError("purpose must be a string or null; a line without one predates purposes: re-record the transcript")
    if not isinstance(record, dict) or not all(key in record for key in keys):
        raise ValueError(f"a record is an object with the keys {', '.join(keys)}")
    try:
        if not isinstance(record["request"], list):
            raise TypeError("not a list")
        for turn in record["request"]:
            ChatTurn(turn["role"], turn["content"])  # the one turn check
    except (LookupError, TypeError, ValueError):
        raise ValueError(f"request must be a list of turns, each with a role in {_ROLES} and string content") from None
    strings = ("response", "error", "identity")  # error only on a failed call
    if not isinstance(record["params"], dict) or not all(isinstance(record.get(key, ""), str) for key in strings):
        raise ValueError("params must be an object, and response, identity and any error strings")
    return record


@contextlib.contextmanager
def open_utf8(path: str | Path, newline: str | None = None) -> Iterator[TextIO]:
    """``path`` open for reading as UTF-8 text, skipping a byte-order mark. A byte that is
    not UTF-8 raises UnicodeDecodeError at its file byte offset, naming its line: the text
    reader counts from its decode chunk, so on that error the bytes are decoded whole."""
    with Path(path).open("r", encoding="utf-8-sig", newline=newline) as handle:
        try:
            yield handle
        except UnicodeDecodeError:
            data = Path(path).read_bytes()
            try:
                data.decode("utf-8")
            except UnicodeDecodeError as found:
                line = data.count(b"\n", 0, found.start) + 1
                found.reason += f" (line {line}, file byte offset {found.start})"
                raise found from None
            raise


class Transcript:
    """Append-only writer of recorded backend calls, as JSON Lines.

    A call is one record, the object on one line: ``request_digest`` (a label), ``request`` (the turns as
    role and content objects), ``params``, ``response``, ``error`` (on a failed call only), ``timestamp``,
    ``purpose`` (``critique:<kind>@<iteration>``, ``consolidate:<kind>@<iteration>``, ``solve:<item id>``,
    ``decompose`` or ``rewrite@<iteration>``; null outside :func:`call_for`) and ``identity``. Each call is
    appended as the line :class:`RecordingBackend` built, written to ``stream`` and flushed; appends are
    serialized internally. Without a ``stream`` the lines go to an in-memory buffer, which :meth:`save`
    writes unchanged (on a file stream it raises AttributeError and writes no file). :meth:`load` reads a
    saved transcript back as its records.
    """

    def __init__(self, stream: TextIO | None = None) -> None:
        self._stream = io.StringIO() if stream is None else stream
        self._lock = threading.Lock()

    def append(self, line: str) -> None:
        """Add a call as its transcript line, newline included."""
        with self._lock:
            self._stream.write(line)
            self._stream.flush()

    def save(self, path: str | Path) -> None:
        with self._lock:
            text = self._stream.getvalue()  # one copy, taken before the path is opened, written in slices
            with Path(path).open("w", encoding="utf-8") as handle:
                for start in range(0, len(text), 65536):
                    handle.write(text[start : start + 65536])

    @classmethod
    def load(cls, path: str | Path) -> list[dict]:
        """The records of a saved transcript, each checked once. A line without one
        raises ValueError naming the line; text that is not UTF-8 raises
        UnicodeDecodeError, also a ValueError, naming the line and byte offset."""
        records = []
        with open_utf8(path) as handle:
            for number, line in enumerate(handle, start=1):
                if line.strip():
                    try:
                        records.append(_checked_record(line))
                    except ValueError as exc:
                        raise ValueError(f"line {number}: {exc}") from None
        return records


class RecordingBackend(CriticBackend):
    """Wraps a backend and appends every call to a transcript as its line.

    Responses pass through unchanged; a :class:`BackendError` is recorded as
    ``"response": ""`` and its ``error`` text, then re-raised. The wrapper
    keeps the inner backend's identity so recorded runs and live runs label
    their outputs the same way. The request is joined from its turns as
    escaped for the digest and the rest of the record is dumped once; the
    line equals ``json.dumps(record, ensure_ascii=False)`` plus a newline.
    """

    def __init__(self, inner: CriticBackend, store: Transcript) -> None:
        self.inner = inner
        self.store = store
        self.name = inner.name
        self.model = inner.model

    def complete(self, turns: Sequence[ChatTurn], params: GenerationParams) -> str:
        from datetime import datetime, timezone  # the first recorded call loads it, not every offline command

        try:
            response, error = self.inner.complete(turns, params), None
        except BackendError as exc:  # recorded, so that a replay fails the same call alike
            response, error = "", exc
        digest, escaped = _encoded_request(turns, params)
        request = ", ".join(f'{{"role": {role}, "content": {content}}}' for role, content in escaped)
        tail = {"params": params.to_dict(), "response": response, **({} if error is None else {"error": str(error)}),
                "timestamp": datetime.now(timezone.utc).isoformat(), "purpose": _PURPOSE.get(), "identity": self.identity}
        self.store.append(f'{{"request_digest": "{digest}", "request": [{request}], {json.dumps(tail, ensure_ascii=False)[1:]}\n')
        if error is not None:
            raise error
        return response


class ReplayBackend(CriticBackend):
    """Serves each call, once, the record logged for its purpose if the turns and canonical params JSON are
    equal (with no digest: ``request_digest`` is a label), raising one with an ``error`` as :class:`BackendError`;
    any other call consumes nothing and raises :class:`ReplayMiss`. It names itself by the logged ``identity``."""

    name = "replay"
    model = "transcript"

    def __init__(self, records: Iterable[dict]) -> None:
        self._records: dict[str | None, dict] = {}  # by purpose, each until it is served
        for record in records:
            if self._records.setdefault(record["purpose"], record) is not record:
                raise ValueError(f"the purpose {record['purpose']!r} is logged twice")
            self.name, _, self.model = record["identity"].partition(":")
        self._lock = threading.Lock()

    def complete(self, turns: Sequence[ChatTurn], params: GenerationParams) -> str:
        with self._lock:
            record = self._records.get(purpose := _PURPOSE.get())
            same = record and record["request"] == [turn.to_dict() for turn in turns]
            if same and _params_json(record["params"]) == params.canonical_json:
                del self._records[purpose]
                if "error" in record:
                    raise BackendError(record["error"])
                return record["response"]
        raise ReplayMiss(f"no recorded call for purpose {purpose} with request digest {request_digest(turns, params)}; "
                         "the run diverged from the recording")


def _retry_after_seconds(value: str) -> float | None:
    """The wait a ``Retry-After`` value asks for: delta-seconds or an HTTP-date
    (RFC 9110 section 10.2.3), or None when it is empty or neither, which
    keeps the exponential backoff."""
    if value.isdecimal():
        return float(value)
    from datetime import datetime, timezone
    from email.utils import parsedate_to_datetime

    try:
        when = parsedate_to_datetime(value)
    except ValueError:
        return None
    when = when if when.tzinfo else when.replace(tzinfo=timezone.utc)  # "-0000" means UTC
    return max(0.0, (when - datetime.now(timezone.utc)).total_seconds())


class HTTPBackend(CriticBackend):
    """Live backend for OpenAI-compatible chat-completion endpoints.

    POSTs to ``{base_url}/v1/chat/completions`` with a bearer token, straight to the host over
    keep-alive connections that its threads share. Retries transport failures, 429 and 5xx responses
    up to ``MAX_ATTEMPTS`` (three) attempts with exponential backoff (1s then 2s), or after the
    response's ``Retry-After`` when it gives seconds or an HTTP-date; such a wait longer than
    ``timeout`` fails at once instead. Other HTTP errors fail immediately, as does a reply the provider
    cut short (``finish_reason`` ``length`` or ``content_filter``): the same request would be cut again.
    """

    name = "http"

    def __init__(
        self,
        model: str,
        base_url: str | None = None,
        api_key: str | None = None,
        timeout: float = 60.0,
        backoff_base: float = 1.0,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        import http.client, ssl  # only a live backend loads the HTTP stack
        from urllib.parse import quote, urlsplit

        base_url = base_url or os.environ.get(BASE_URL_ENV, "")
        if not base_url:
            raise ValueError(f"no base URL: pass base_url or set {BASE_URL_ENV}")
        if not 0 < timeout <= threading.TIMEOUT_MAX:  # a socket rejects a longer one at every call
            raise ValueError(f"timeout must be a positive number of seconds, at most {threading.TIMEOUT_MAX:.0f}, got {timeout!r}")
        if backoff_base < 0:
            raise ValueError(f"backoff_base must be >= 0, got {backoff_base!r}")
        api_key = api_key if api_key is not None else os.environ.get(API_KEY_ENV, "")
        if any(ord(char) > 255 or char in "\r\n" for char in api_key):  # every call would fail, naming the key
            raise ValueError(f"the API key ({API_KEY_ENV}) must be latin-1 text without line breaks, as HTTP headers are")
        url = urlsplit(base_url)
        connection = {"http": http.client.HTTPConnection, "https": http.client.HTTPSConnection}.get(url.scheme)
        if url.scheme == "https":  # one context for the pool: a default one per connection loads the CA store again
            connection = functools.partial(connection, context=(context := ssl.create_default_context()))
            context.set_alpn_protocols(["http/1.1"])  # as http.client sets up its own, with post-handshake auth
            context.post_handshake_auth = True
        try:  # every call would fail on a URL no connection can be opened to
            if connection is None or not url.hostname:
                raise ValueError("it needs the scheme http or https, and a host")
            self._connect = functools.partial(connection, url.hostname, url.port, timeout=timeout)
            self._idle = [self._connect()]  # checks the host; it connects at its first request
        except (ValueError, http.client.InvalidURL) as exc:  # url.port raises ValueError unless a number in 0-65535
            raise ValueError(f"base URL {base_url!r} cannot be used: {exc}") from None
        weakref.finalize(self, lambda idle: [conn.close() for conn in idle], self._idle)
        self._path = quote(url.path.rstrip("/"), safe="/%:@!$&'()*+,;=") + "/v1/chat/completions"
        self._lock = threading.Lock()
        self.model = model
        self._headers = {"Content-Type": "application/json", **({"Authorization": f"Bearer {api_key}"} if api_key else {})}
        self.timeout = timeout
        self.backoff_base = backoff_base
        self._sleep = sleep

    def complete(self, turns: Sequence[ChatTurn], params: GenerationParams) -> str:
        import http.client
        from urllib.parse import quote

        purpose = _PURPOSE.get()  # for a provider that logs or routes by it; a header holds only latin-1 and no line break
        headers = self._headers if purpose is None else {**self._headers, "X-MPO-Purpose": quote(purpose, safe="")}
        body: dict = {
            "model": self.model,
            "messages": [turn.to_dict() for turn in turns],
            "temperature": params.temperature,
            "max_tokens": params.max_output_tokens,
        }
        if params.seed is not None:
            body["seed"] = params.seed
        data = json.dumps(body).encode("utf-8")

        last_error, delay = "", 0.0
        for attempt in range(MAX_ATTEMPTS):
            if attempt:
                self._sleep(delay)
            delay = self.backoff_base * 2**attempt
            try:
                status, retry_after, payload = self._post(data, headers)
            except (OSError, http.client.HTTPException) as exc:
                last_error = f"transport error: {exc}"
                logger.warning("attempt %d/%d failed: %s", attempt + 1, MAX_ATTEMPTS, last_error)
                continue
            if status == 429 or status >= 500:
                last_error = f"status {status}"
                wait = _retry_after_seconds(retry_after.strip())
                if wait is not None and wait > self.timeout:  # do not stall a worker that long
                    raise BackendError(
                        f"{last_error}: Retry-After asks for a {wait:g} s wait, "
                        f"longer than the {self.timeout:g} s timeout"
                    )
                delay = delay if wait is None else wait
                logger.warning("attempt %d/%d failed: %s", attempt + 1, MAX_ATTEMPTS, last_error)
                continue
            if status != 200:
                raise BackendError(
                    f"request failed with status {status}: "
                    f"{payload.decode('utf-8', errors='replace')[:500]}"
                )
            return self._extract_content(payload, params.max_output_tokens)
        raise BackendError(
            f"request failed after {MAX_ATTEMPTS} attempts: {last_error}"
        )

    def _post(self, data: bytes, headers: dict[str, str]) -> tuple[int, str, bytes]:
        """The status, Retry-After and body that ``data`` POSTed with ``headers`` on an idle or a new connection gets."""
        with self._lock:
            conn = self._idle.pop() if self._idle else None
        conn = conn or self._connect()
        try:
            for stale_ok in (conn.sock is not None, False):  # a reused socket the server may have closed while idle
                try:
                    conn.request("POST", self._path, data, headers)
                    response = conn.getresponse()
                    return response.status, response.getheader("Retry-After", ""), response.read()
                except BaseException as exc:
                    conn.close()  # it goes back, and its next request opens a new socket
                    if not (stale_ok and isinstance(exc, (ConnectionResetError, BrokenPipeError))):
                        raise  # RemoteDisconnected, an idle close seen on a read, is a ConnectionResetError
        finally:
            with self._lock:
                self._idle.append(conn)

    @staticmethod
    def _extract_content(body: bytes, max_tokens: int) -> str:
        try:
            choice = json.loads(body)["choices"][0]
            content = choice["message"]["content"]
        except (ValueError, LookupError, TypeError) as exc:
            raise BackendError(f"malformed completion response: {exc}") from exc
        if not isinstance(content, str):
            raise BackendError(f"malformed completion response: content is {type(content).__name__}, not a string")
        if (reason := choice.get("finish_reason")) == "length":
            raise BackendError(f"reply cut at max_tokens ({max_tokens})")
        if reason == "content_filter":
            raise BackendError("reply cut by the provider's content filter")
        return content
