"""Spice-format netlist parser.

Supports the subset of classic Spice syntax needed to describe the
circuits in this repository (and a bit more):

* elements: ``R C L V I E G M D S X``
* ``.model`` cards for ``nmos`` / ``pmos`` / ``d`` / ``sw``
* ``.subckt`` / ``.ends`` definitions (must precede their use; eagerly
  flattened at instantiation like Spice ``X`` expansion)
* ``.param`` with ``{...}`` arithmetic expressions in element values
* ``+`` continuation lines, ``*`` comment lines, ``;``/``$`` trailing
  comments, engineering suffixes (``k``, ``meg``, ``u`` ...)
* source transients: ``PULSE(...)``, ``SIN(...)``, ``PWL(...)``, plus
  ``DC`` and ``AC`` specifications.

The first non-blank line is the title (classic Spice convention) unless
``title_line=False``.
"""

from __future__ import annotations

import math
import re
from typing import Iterator

from repro.spice.devices.controlled import Vccs, Vcvs
from repro.spice.devices.diode import Diode, DiodeModel
from repro.spice.devices.mosfet import Mosfet, MosModel
from repro.spice.devices.passives import Capacitor, Inductor, Resistor
from repro.spice.devices.sources import (
    CurrentSource,
    Pulse,
    Pwl,
    Sin,
    VoltageSource,
)
from repro.spice.devices.switch import SwitchModel, VSwitch
from repro.spice.errors import NetlistError, ParseError
from repro.spice.netlist import Circuit, Subckt
from repro.spice.units import parse_value

__all__ = ["parse_netlist", "parse_value"]

_EXPR_NAMES = {
    "pi": math.pi,
    "sqrt": math.sqrt,
    "exp": math.exp,
    "log": math.log,
    "log10": math.log10,
    "sin": math.sin,
    "cos": math.cos,
    "abs": abs,
    "min": min,
    "max": max,
    "pow": pow,
}

# Model parameters accepted but deliberately ignored (kept for
# compatibility with cards written for other simulators).
_IGNORED_MOS_PARAMS = {
    "level", "u0", "nsub", "tpg", "xj", "js", "is", "rd", "rs", "rsh",
    "nfs", "delta", "eta", "theta", "kappa", "vmax", "af", "kf", "fc",
    "mj", "mjsw", "pb",
}


def _strip_comment(line: str) -> str:
    for marker in (";", "$"):
        pos = line.find(marker)
        if pos >= 0:
            line = line[:pos]
    return line.rstrip()


def _logical_lines(text: str) -> Iterator[tuple[int, str]]:
    """Join ``+`` continuations; yield ``(first_line_no, logical_line)``."""
    pending: str | None = None
    pending_no = 0
    for no, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw)
        stripped = line.strip()
        if not stripped or stripped.startswith("*"):
            continue
        if stripped.startswith("+"):
            if pending is None:
                raise ParseError("continuation line with nothing to continue",
                                 no, raw)
            pending += " " + stripped[1:]
            continue
        if pending is not None:
            yield pending_no, pending
        pending = stripped
        pending_no = no
    if pending is not None:
        yield pending_no, pending


def _tokenize(line: str) -> list[str]:
    """Split a logical line into tokens; ``{...}`` expressions and
    quoted expressions stay single tokens."""
    tokens: list[str] = []
    i = 0
    n = len(line)
    while i < n:
        ch = line[i]
        if ch.isspace() or ch == ",":
            i += 1
        elif ch == "{":
            j = line.find("}", i)
            if j < 0:
                raise ParseError(f"unterminated '{{' expression in {line!r}")
            tokens.append(line[i:j + 1])
            i = j + 1
        elif ch == "'":
            j = line.find("'", i + 1)
            if j < 0:
                raise ParseError(f"unterminated quoted expression in {line!r}")
            tokens.append("{" + line[i + 1:j] + "}")
            i = j + 1
        elif ch in "()=":
            tokens.append(ch)
            i += 1
        else:
            j = i
            while j < n and not line[j].isspace() and line[j] not in "(),='{":
                j += 1
            tokens.append(line[i:j])
            i = j
    return tokens


class _NetlistParser:
    def __init__(self, title_line: bool = True):
        self.title_line = title_line
        self.params: dict[str, float] = {}

    # -- value helpers -------------------------------------------------
    def value(self, token: str) -> float:
        """Evaluate a numeric token: plain number, suffixed number,
        parameter name, or ``{expression}``."""
        if token.startswith("{") and token.endswith("}"):
            return self.eval_expr(token[1:-1])
        try:
            return parse_value(token)
        except ValueError:
            key = token.lower()
            if key in self.params:
                return self.params[key]
            raise ParseError(f"cannot evaluate value {token!r}") from None

    def eval_expr(self, expr: str) -> float:
        names = dict(_EXPR_NAMES)
        names.update(self.params)
        # Replace engineering-suffixed literals (e.g. 10u) up front.
        def repl(match: re.Match) -> str:
            return repr(parse_value(match.group(0)))

        expr = re.sub(
            r"(?<![\w.])(\d+\.?\d*|\.\d+)(meg|mil|[tgkmunpfa])(?![\w])",
            repl, expr, flags=re.IGNORECASE)
        try:
            result = eval(expr, {"__builtins__": {}}, names)  # noqa: S307
        except Exception as exc:
            raise ParseError(f"bad expression {expr!r}: {exc}") from None
        return float(result)

    # -- main entry ----------------------------------------------------
    def parse(self, text: str) -> Circuit:
        title = ""
        if self.title_line:
            # Classic Spice: the first non-blank *raw* line is always
            # the title, whatever it looks like - even a ``*`` comment.
            # Deciding after comment-stripping would silently swallow
            # the first element of a netlist that opens with a comment.
            raw_lines = text.splitlines()
            for i, raw in enumerate(raw_lines):
                if raw.strip():
                    title = raw.strip()
                    # Blank (not delete) the line so error messages keep
                    # the original numbering.
                    raw_lines[i] = ""
                    text = "\n".join(raw_lines)
                    break
        lines = list(_logical_lines(text))
        circuit = Circuit(title)

        # First pass: collect .param so forward references work.
        for no, line in lines:
            tokens = _tokenize(line)
            if tokens and tokens[0].lower() == ".param":
                self._handle_param(tokens[1:], no, line)

        idx = 0
        while idx < len(lines):
            no, line = lines[idx]
            tokens = _tokenize(line)
            head = tokens[0].lower()
            if head == ".subckt":
                idx = self._parse_subckt(circuit, lines, idx)
                continue
            if head in (".param", ".end"):
                idx += 1
                continue
            if head == ".ends":
                raise ParseError(".ends without .subckt", no, line)
            if head == ".model":
                self._handle_model(circuit, tokens[1:], no, line)
            elif head.startswith("."):
                raise ParseError(f"unsupported directive {tokens[0]!r}",
                                 no, line)
            else:
                self._handle_element(circuit, tokens, no, line)
            idx += 1
        return circuit

    # -- directives ----------------------------------------------------
    def _handle_param(self, tokens: list[str], no: int, line: str) -> None:
        i = 0
        while i < len(tokens):
            if i + 2 >= len(tokens) or tokens[i + 1] != "=":
                raise ParseError(".param expects name=value pairs", no, line)
            name = tokens[i].lower()
            self.params[name] = self.value(tokens[i + 2])
            i += 3

    def _kv_pairs(self, tokens: list[str], no: int,
                  line: str) -> dict[str, float]:
        """Parse ``key = value`` pairs, skipping parentheses."""
        pairs: dict[str, float] = {}
        toks = [t for t in tokens if t not in ("(", ")")]
        i = 0
        while i < len(toks):
            if i + 2 >= len(toks) + 1 and toks[i + 1: i + 2] != ["="]:
                raise ParseError(f"expected key=value, got {toks[i:]!r}",
                                 no, line)
            if i + 2 >= len(toks) or toks[i + 1] != "=":
                raise ParseError(f"expected key=value, got {toks[i:]!r}",
                                 no, line)
            pairs[toks[i].lower()] = self.value(toks[i + 2])
            i += 3
        return pairs

    def _handle_model(self, circuit: Circuit, tokens: list[str],
                      no: int, line: str) -> None:
        if len(tokens) < 2:
            raise ParseError(".model needs a name and a type", no, line)
        name = tokens[0].lower()
        mtype = tokens[1].lower()
        pairs = self._kv_pairs(tokens[2:], no, line)
        if mtype in ("nmos", "pmos"):
            kwargs = {}
            for key, val in pairs.items():
                if key == "lambda":
                    kwargs["lambd"] = val
                elif key in ("vto", "kp", "gamma", "phi", "tox", "cgso",
                             "cgdo", "cgbo", "cj", "cjsw", "ld", "ldiff",
                             "lambd"):
                    kwargs[key] = val
                elif key in _IGNORED_MOS_PARAMS:
                    continue
                else:
                    raise ParseError(
                        f"unknown MOS model parameter {key!r}", no, line)
            circuit.add_model(MosModel(name=name, mtype=mtype[0], **kwargs))
        elif mtype == "d":
            kwargs = {}
            for key, val in pairs.items():
                if key == "is":
                    kwargs["is_"] = val
                elif key == "n":
                    kwargs["n"] = val
                elif key in ("cj0", "cjo"):
                    kwargs["cj0"] = val
                else:
                    raise ParseError(
                        f"unknown diode model parameter {key!r}", no, line)
            circuit.add_model(DiodeModel(name=name, **kwargs))
        elif mtype == "sw":
            kwargs = {}
            for key, val in pairs.items():
                if key in ("ron", "roff", "vt", "vh"):
                    kwargs[key] = val
                else:
                    raise ParseError(
                        f"unknown switch model parameter {key!r}", no, line)
            circuit.add_model(SwitchModel(name=name, **kwargs))
        else:
            raise ParseError(f"unsupported model type {mtype!r}", no, line)

    def _parse_subckt(self, circuit: Circuit,
                      lines: list[tuple[int, str]], start: int) -> int:
        no, line = lines[start]
        tokens = _tokenize(line)
        if len(tokens) < 3:
            raise ParseError(".subckt needs a name and ports", no, line)
        if "=" in tokens:
            raise ParseError("subckt parameters are not supported", no, line)
        name = tokens[1].lower()
        ports = tokens[2:]
        inner = Circuit(f"subckt {name}")
        inner.subckts = circuit.subckts  # visible earlier definitions
        idx = start + 1
        while idx < len(lines):
            no2, line2 = lines[idx]
            toks = _tokenize(line2)
            head = toks[0].lower()
            if head == ".ends":
                circuit.add_subckt(Subckt(name=name, ports=ports,
                                          circuit=inner))
                return idx + 1
            if head == ".subckt":
                raise ParseError("nested .subckt definitions are not "
                                 "supported", no2, line2)
            if head == ".model":
                self._handle_model(inner, toks[1:], no2, line2)
            elif head == ".param":
                pass  # collected in the first pass
            elif head.startswith("."):
                raise ParseError(f"unsupported directive {toks[0]!r} "
                                 "inside .subckt", no2, line2)
            else:
                self._handle_element(inner, toks, no2, line2)
            idx += 1
        raise ParseError(f".subckt {name} is missing .ends", no, line)

    # -- elements --------------------------------------------------------
    def _handle_element(self, circuit: Circuit, tokens: list[str],
                        no: int, line: str) -> None:
        name = tokens[0].lower()
        kind = name[0]
        try:
            if kind == "r":
                circuit.add(Resistor(name, tokens[1], tokens[2],
                                     self.value(tokens[3])))
            elif kind == "c":
                ic = self._trailing_ic(tokens[4:], no, line)
                circuit.add(Capacitor(name, tokens[1], tokens[2],
                                      self.value(tokens[3]), ic=ic))
            elif kind == "l":
                ic = self._trailing_ic(tokens[4:], no, line)
                circuit.add(Inductor(name, tokens[1], tokens[2],
                                     self.value(tokens[3]), ic=ic))
            elif kind in ("v", "i"):
                self._handle_source(circuit, kind, name, tokens, no, line)
            elif kind == "e":
                circuit.add(Vcvs(name, tokens[1], tokens[2], tokens[3],
                                 tokens[4], self.value(tokens[5])))
            elif kind == "g":
                circuit.add(Vccs(name, tokens[1], tokens[2], tokens[3],
                                 tokens[4], self.value(tokens[5])))
            elif kind == "m":
                params = self._kv_pairs(tokens[6:], no, line)
                if "w" not in params or "l" not in params:
                    raise ParseError("MOSFET needs W= and L=", no, line)
                circuit.add(Mosfet(name, tokens[1], tokens[2], tokens[3],
                                   tokens[4], tokens[5].lower(),
                                   params["w"], params["l"],
                                   m=params.get("m", 1.0)))
            elif kind == "d":
                circuit.add(Diode(name, tokens[1], tokens[2],
                                  tokens[3].lower()))
            elif kind == "s":
                circuit.add(VSwitch(name, tokens[1], tokens[2], tokens[3],
                                    tokens[4], tokens[5].lower()))
            elif kind == "x":
                circuit.instantiate(name, tokens[-1].lower(), tokens[1:-1])
            else:
                raise ParseError(f"unknown element type {tokens[0]!r}",
                                 no, line)
        except IndexError:
            raise ParseError(f"too few fields for element {tokens[0]!r}",
                             no, line) from None
        except NetlistError as exc:
            # Duplicate device names, bad subckt bindings and invalid
            # element values surface as parse errors with the offending
            # line instead of silently overwriting or failing later.
            raise ParseError(str(exc), no, line) from None

    def _trailing_ic(self, rest: list[str], no: int,
                     line: str) -> float | None:
        toks = [t for t in rest if t != "="]
        if not toks:
            return None
        if toks[0].lower() == "ic" and len(toks) >= 2:
            return self.value(toks[1])
        raise ParseError(f"unexpected trailing fields {rest!r}", no, line)

    def _handle_source(self, circuit: Circuit, kind: str, name: str,
                       tokens: list[str], no: int, line: str) -> None:
        n1, n2 = tokens[1], tokens[2]
        rest = tokens[3:]
        dc = 0.0
        ac_mag = 0.0
        ac_phase = 0.0
        wave = None
        i = 0

        def take_numbers(start: int) -> tuple[list[float], int]:
            vals: list[float] = []
            j = start
            if j < len(rest) and rest[j] == "(":
                j += 1
            while j < len(rest):
                tok = rest[j]
                if tok == ")":
                    j += 1
                    break
                if tok == "(":
                    j += 1
                    continue
                try:
                    vals.append(self.value(tok))
                except ParseError:
                    break
                j += 1
            return vals, j

        while i < len(rest):
            tok = rest[i].lower()
            if tok == "dc":
                dc = self.value(rest[i + 1])
                i += 2
            elif tok == "ac":
                ac_mag = self.value(rest[i + 1])
                i += 2
                if i < len(rest):
                    try:
                        ac_phase = self.value(rest[i])
                        i += 1
                    except ParseError:
                        pass
            elif tok == "pulse":
                vals, i = take_numbers(i + 1)
                if len(vals) < 2:
                    raise ParseError("PULSE needs at least v1 v2", no, line)
                defaults = [0.0, 0.0, 0.0, 1e-12, 1e-12, 1e-6, math.inf]
                vals = vals + defaults[len(vals):]
                wave = Pulse(*vals[:7])
            elif tok == "sin":
                vals, i = take_numbers(i + 1)
                if len(vals) < 3:
                    raise ParseError("SIN needs vo va freq", no, line)
                defaults = [0.0, 0.0, 0.0, 0.0, 0.0]
                vals = vals + defaults[len(vals):]
                wave = Sin(vals[0], vals[1], vals[2], vals[3], vals[4])
            elif tok == "pwl":
                vals, i = take_numbers(i + 1)
                if len(vals) < 2 or len(vals) % 2:
                    raise ParseError("PWL needs t/v pairs", no, line)
                pts = list(zip(vals[0::2], vals[1::2]))
                wave = Pwl(pts)
            else:
                # Bare leading number = DC value.
                dc = self.value(rest[i])
                i += 1
        cls = VoltageSource if kind == "v" else CurrentSource
        circuit.add(cls(name, n1, n2, dc=dc, ac_mag=ac_mag,
                        ac_phase=ac_phase, wave=wave))


def parse_netlist(text: str, title_line: bool = True) -> Circuit:
    """Parse Spice-format *text* into a :class:`Circuit`.

    Args:
        text: the netlist source.
        title_line: treat the first non-blank line as a title (classic
            Spice).  Lines that are clearly elements or directives are
            never consumed as titles.

    Raises:
        ParseError: with the offending line number on any syntax error.
    """
    return _NetlistParser(title_line=title_line).parse(text)
