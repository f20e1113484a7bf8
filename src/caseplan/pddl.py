"""Parse and serialize the STRIPS subset of PDDL (``:strips`` and ``:typing`` only)."""

from __future__ import annotations

from typing import NamedTuple

from .strips import (
    ActionSchema,
    Atom,
    DomainModel,
    PlanningProblem,
    StripsError,
)


class PddlError(Exception):
    """Base error for PDDL handling; carries a source position when known."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.line = line
        self.col = col
        if line is not None:
            message = f"line {line}, col {col}: {message}"
        super().__init__(message)


class PddlSyntaxError(PddlError):
    pass


class UnsupportedFeatureError(PddlError):
    """An input uses a PDDL construct outside the supported STRIPS subset."""


SUPPORTED_REQUIREMENTS = {":strips", ":typing"}

# Formula heads that signal constructs we deliberately do not handle.
_REJECTED_HEADS = {
    "or", "not", "imply", "exists", "forall", "when", "=", "either",
    "increase", "decrease", "assign", "scale-up", "scale-down",
}


class Token(NamedTuple):
    text: str
    line: int
    col: int


def tokenize(text: str) -> list[Token]:
    """Split PDDL text into parens and symbols, lowercased, with positions."""
    tokens: list[Token] = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
        elif ch.isspace():
            col += 1
            i += 1
        elif ch == ";":
            while i < n and text[i] != "\n":
                i += 1
        elif ch in "()":
            tokens.append(Token(ch, line, col))
            col += 1
            i += 1
        else:
            start = i
            start_col = col
            while i < n and not text[i].isspace() and text[i] not in "();":
                i += 1
                col += 1
            tokens.append(Token(text[start:i].lower(), line, start_col))
    return tokens


# An s-expression node is either a Token or a list of nodes. Lists remember
# the position of their opening paren for error reporting.
class SList(list):
    line: int = 0
    col: int = 0


def read_sexprs(text: str) -> list[object]:
    """The s-expressions of a text, in order. Open lists are kept on a stack,
    not in Python frames, so any depth of nesting is read."""
    out: list[object] = []
    stack: list[SList] = []  # the open lists, innermost last
    for tok in tokenize(text):
        parent = stack[-1] if stack else out
        if tok.text == "(":
            node = SList()
            node.line, node.col = tok.line, tok.col
            parent.append(node)
            stack.append(node)
        elif tok.text == ")":
            if not stack:
                raise PddlSyntaxError("unbalanced ')'", tok.line, tok.col)
            stack.pop()
        else:
            parent.append(tok)
    if stack:
        raise PddlSyntaxError("unbalanced '('", stack[-1].line, stack[-1].col)
    return out


def _as_symbol(node: object, what: str) -> Token:
    if not isinstance(node, Token):
        assert isinstance(node, SList)
        raise PddlSyntaxError(f"expected {what}, found a list", node.line, node.col)
    return node


def _as_list(node: object, what: str) -> SList:
    if not isinstance(node, SList):
        assert isinstance(node, Token)
        raise PddlSyntaxError(f"expected {what}, found '{node.text}'", node.line, node.col)
    return node


def _parse_typed_list(nodes: list[object], what: str) -> list[tuple[str, str]]:
    """Parse ``a b - t c d`` into (name, type) pairs; untyped entries get ``object``."""
    out: list[tuple[str, str]] = []
    pending: list[str] = []
    i = 0
    while i < len(nodes):
        tok = _as_symbol(nodes[i], what)
        if tok.text == "-":
            if not pending:
                raise PddlSyntaxError(f"dangling '-' in {what} list", tok.line, tok.col)
            if i + 1 >= len(nodes):
                raise PddlSyntaxError(f"missing type after '-' in {what} list", tok.line, tok.col)
            type_tok = nodes[i + 1]
            if isinstance(type_tok, SList):
                raise UnsupportedFeatureError("compound types ('either') are not supported",
                                              type_tok.line, type_tok.col)
            out.extend((name, type_tok.text) for name in pending)
            pending = []
            i += 2
        else:
            pending.append(tok.text)
            i += 1
    out.extend((name, "object") for name in pending)
    return out


def _parse_atom(node: object, *, variables_ok: bool) -> Atom:
    lst = _as_list(node, "an atom")
    if not lst:
        raise PddlSyntaxError("empty atom", lst.line, lst.col)
    head = _as_symbol(lst[0], "a predicate name")
    if head.text in _REJECTED_HEADS:
        raise UnsupportedFeatureError(f"'{head.text}' is not supported here",
                                      head.line, head.col)
    args = []
    for arg in lst[1:]:
        tok = _as_symbol(arg, "an atom argument")
        if tok.text.startswith("?") and not variables_ok:
            raise PddlSyntaxError(f"variable {tok.text} not allowed in a ground atom",
                                  tok.line, tok.col)
        args.append(tok.text)
    return Atom(head.text, tuple(args))


def _parse_conjunction(node: object, *, variables_ok: bool,
                       allow_not: bool) -> tuple[list[Atom], list[Atom]]:
    """Parse ``(and ...)`` or a bare atom into (positive, negative) atom lists,
    in document order. Nested ``and`` are flattened on a stack, not in Python
    frames, so any depth of nesting is read."""
    positive: list[Atom] = []
    negative: list[Atom] = []
    stack = [node]  # formulas still to read, the next one last
    while stack:
        lst = _as_list(stack.pop(), "a formula")
        if not lst:
            continue  # () is an empty conjunction
        head = lst[0]
        if isinstance(head, Token) and head.text == "and":
            stack.extend(reversed(lst[1:]))
        elif isinstance(head, Token) and head.text == "not":
            if not allow_not:
                raise UnsupportedFeatureError("negative conditions are not supported",
                                              head.line, head.col)
            if len(lst) != 2:
                raise PddlSyntaxError("'not' takes exactly one atom", head.line, head.col)
            negative.append(_parse_atom(lst[1], variables_ok=variables_ok))
        elif isinstance(head, Token) and head.text in _REJECTED_HEADS:
            raise UnsupportedFeatureError(f"'{head.text}' is not supported",
                                          head.line, head.col)
        else:
            positive.append(_parse_atom(lst, variables_ok=variables_ok))
    return positive, negative


def _sections(forms: list[object], what: str, known: tuple[str, ...],
              unsupported: tuple[str, ...] = (), repeated: str | None = None
              ) -> dict[str, list[SList]]:
    """The ``(KEYWORD ...)`` sections of a form by keyword, in document order.
    A keyword outside ``known`` is an error located at its section: an
    :class:`UnsupportedFeatureError` for the PDDL constructs in
    ``unsupported``, a syntax error otherwise. So is a second copy of any
    section other than ``repeated``."""
    out: dict[str, list[SList]] = {}
    for node in forms:
        section = _as_list(node, f"a {what} section")
        if not section:
            raise PddlSyntaxError(f"empty section in {what}", section.line, section.col)
        kind = _as_symbol(section[0], "a section keyword").text
        if kind in unsupported:
            raise UnsupportedFeatureError(f"{kind} sections are not supported",
                                          section.line, section.col)
        if kind not in known:
            raise PddlSyntaxError(f"unknown {what} section {kind}", section.line, section.col)
        if kind in out and kind != repeated:
            raise PddlSyntaxError(f"duplicate {what} section {kind}", section.line, section.col)
        out.setdefault(kind, []).append(section)
    return out


def _define(text: str, kind: str) -> tuple[SList, str]:
    """Check the ``(define (KIND NAME) ...)`` frame; return the form and NAME."""
    trees = read_sexprs(text)
    if len(trees) != 1:
        raise PddlSyntaxError("expected exactly one (define ...) form")
    tree = _as_list(trees[0], "a define form")
    if len(tree) < 2 or not isinstance(tree[0], Token) or tree[0].text != "define":
        raise PddlSyntaxError(f"expected (define ({kind} ...) ...)", tree.line, tree.col)
    head = _as_list(tree[1], f"({kind} NAME)")
    if len(head) != 2 or _as_symbol(head[0], "a keyword").text != kind:
        raise PddlSyntaxError(f"expected ({kind} NAME)", head.line, head.col)
    return tree, _as_symbol(head[1], f"a {kind} name").text


def _check_requirements(section: SList) -> None:
    for req in section[1:]:
        tok = _as_symbol(req, "a requirement")
        if tok.text not in SUPPORTED_REQUIREMENTS:
            raise UnsupportedFeatureError(f"requirement {tok.text} is not supported",
                                          tok.line, tok.col)


def parse_domain(text: str) -> DomainModel:
    """Parse a PDDL domain restricted to ``:strips``/``:typing``.

    Anything outside that subset raises :class:`UnsupportedFeatureError`
    naming the construct; malformed input raises :class:`PddlSyntaxError`
    with a source position.
    """
    tree, name = _define(text, "domain")
    sections = _sections(tree[2:], "domain", (":requirements", ":types", ":predicates", ":action"),
                         (":constants", ":functions", ":axioms", ":derived"), ":action")
    for section in sections.get(":requirements", ()):
        _check_requirements(section)
    types: dict[str, str | None] = {"object": None}
    for section in sections.get(":types", ()):
        for child, parent in _parse_typed_list(section[1:], "type"):
            types[child] = parent
            types.setdefault(parent, None)
    predicates: dict[str, tuple[str, ...]] = {}
    for section in sections.get(":predicates", ()):
        for decl in section[1:]:
            lst = _as_list(decl, "a predicate declaration")
            if not lst:
                raise PddlSyntaxError("empty predicate declaration", lst.line, lst.col)
            pname = _as_symbol(lst[0], "a predicate name").text
            params = _parse_typed_list(lst[1:], "predicate parameter")
            if pname in predicates:
                raise PddlSyntaxError(f"predicate {pname} declared twice", lst.line, lst.col)
            predicates[pname] = tuple(t for _, t in params)
    schemas: dict[str, ActionSchema] = {}
    for section in sections.get(":action", ()):
        schema = _parse_action(section)
        if schema.name in schemas:
            raise PddlSyntaxError(f"action {schema.name} declared twice",
                                  section.line, section.col)
        schemas[schema.name] = schema

    try:
        return DomainModel(name=name, types=types, predicates=predicates, schemas=schemas)
    except StripsError as err:
        raise PddlError(str(err)) from err


def _parse_action(section: SList) -> ActionSchema:
    if len(section) < 2:
        raise PddlSyntaxError("action needs a name", section.line, section.col)
    name = _as_symbol(section[1], "an action name").text
    fields: dict[str, object] = {}
    i = 2
    while i < len(section):
        key = _as_symbol(section[i], "an action keyword").text
        if key not in (":parameters", ":precondition", ":effect"):
            raise UnsupportedFeatureError(f"action field {key} is not supported",
                                          section.line, section.col)
        if i + 1 >= len(section):
            raise PddlSyntaxError(f"missing value for {key}", section.line, section.col)
        fields[key] = section[i + 1]
        i += 2

    params_node = fields.get(":parameters")
    params = _parse_typed_list(list(_as_list(params_node, ":parameters"))
                               if params_node is not None else [], "parameter")

    pre: list[Atom] = []
    if ":precondition" in fields:
        pre, neg = _parse_conjunction(fields[":precondition"], variables_ok=True,
                                      allow_not=False)
        assert not neg
    add: list[Atom] = []
    delete: list[Atom] = []
    if ":effect" in fields:
        add, delete = _parse_conjunction(fields[":effect"], variables_ok=True, allow_not=True)

    try:
        return ActionSchema(name=name, params=tuple(params),
                            pre=frozenset(pre), add=frozenset(add),
                            delete=frozenset(delete))
    except StripsError as err:
        raise PddlError(f"in action {name}: {err}") from err


def parse_problem(text: str, domain: DomainModel) -> PlanningProblem:
    """Parse a PDDL problem against an already-parsed domain."""
    tree, name = _define(text, "problem")
    sections = _sections(tree[2:], "problem", (":domain", ":requirements", ":objects", ":init",
                                               ":goal"), (":constraints", ":metric", ":length"))
    if ":domain" not in sections:
        raise PddlSyntaxError("problem has no (:domain ...) section", tree.line, tree.col)
    (section,) = sections[":domain"]
    if len(section) != 2:
        raise PddlSyntaxError("expected (:domain NAME)", section.line, section.col)
    dname = _as_symbol(section[1], "a domain name").text
    if dname != domain.name:
        raise PddlError(f"problem requires domain {dname}, got {domain.name}",
                        section.line, section.col)
    for section in sections.get(":requirements", ()):
        _check_requirements(section)
    objects: dict[str, str] = {}
    for section in sections.get(":objects", ()):
        for obj, t in _parse_typed_list(section[1:], "object"):
            if obj in objects:
                raise PddlError(f"object {obj} declared twice", section.line, section.col)
            objects[obj] = t
    init = [_parse_atom(node, variables_ok=False)
            for section in sections.get(":init", ()) for node in section[1:]]
    goal: list[Atom] = []
    for section in sections.get(":goal", ()):
        if len(section) != 2:
            raise PddlSyntaxError(":goal takes exactly one formula", section.line, section.col)
        goal, neg = _parse_conjunction(section[1], variables_ok=False, allow_not=False)
        assert not neg

    try:
        return PlanningProblem(name=name, domain=domain, objects=objects,
                               init=frozenset(init), goal=frozenset(goal))
    except StripsError as err:
        raise PddlError(str(err)) from err


# ---------------------------------------------------------------------------
# Serialization. Output is canonical: lowercase symbols, sorted atoms, two
# space indent. parse(serialize(x)) == x up to the completeness tag.
# ---------------------------------------------------------------------------

def _typed_list(pairs: list[tuple[str, str]]) -> str:
    return " ".join(f"{name} - {t}" for name, t in pairs)


def domain_to_pddl(model: DomainModel) -> str:
    lines = [f"(define (domain {model.name})"]
    lines.append("  (:requirements :strips :typing)")
    declared = sorted((c, p) for c, p in model.types.items()
                      if p is not None)
    if declared:
        lines.append("  (:types " + _typed_list(declared) + ")")
    preds = []
    for pname in sorted(model.predicates):
        sig = model.predicates[pname]
        params = " ".join(f"?a{i} - {t}" for i, t in enumerate(sig))
        preds.append(f"({pname}{' ' + params if params else ''})")
    lines.append("  (:predicates " + " ".join(preds) + ")")
    for name in sorted(model.schemas):
        schema = model.schemas[name]
        lines.append(f"  (:action {name}")
        lines.append("    :parameters (" + _typed_list(list(schema.params)) + ")")
        pre = " ".join(a.pddl() for a in sorted(schema.pre))
        lines.append(f"    :precondition (and {pre})" if pre
                     else "    :precondition (and)")
        effects = [a.pddl() for a in sorted(schema.add)]
        effects += [f"(not {a.pddl()})" for a in sorted(schema.delete)]
        lines.append("    :effect (and " + " ".join(effects) + "))")
    lines.append(")")
    return "\n".join(lines) + "\n"


def problem_to_pddl(problem: PlanningProblem) -> str:
    lines = [f"(define (problem {problem.name})",
             f"  (:domain {problem.domain.name})"]
    objs = sorted(problem.objects.items())
    lines.append("  (:objects " + _typed_list(objs) + ")")
    lines.append("  (:init " + " ".join(a.pddl() for a in sorted(problem.init)) + ")")
    lines.append("  (:goal (and " + " ".join(a.pddl() for a in sorted(problem.goal)) + ")))")
    return "\n".join(lines) + "\n"
