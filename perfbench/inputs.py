"""Seeded inputs and the oracles that check the answers.

Everything here is derived from the ``--seed`` argument before any
timing starts.  The oracles never call the engine under test: point and
HTTP answers come from the generated ``SupplierData`` rows, ``write_mix``
answers from a dict model the generator maintains, and ``analytic``
answers from per-template Python over the same rows (plus a sampled
re-run through the AST reference interpreter, see ``workloads.py``).
"""

from __future__ import annotations

import random
from collections import defaultdict
from dataclasses import dataclass, field

from repro.types.values import NULL
from repro.workloads import SupplierScale, generate
from repro.workloads.supplier import AGENT_CITIES, CITIES, COLORS

#: Data scales, all of the paper's supplier schema.  ``point`` and
#: ``http_point`` use 2000 suppliers (20 000 parts, 4000 agents).
#: ``analytic`` uses 1000 suppliers: Examples 1-11 still spend over 80% of
#: statement time executing there, and a 15 s run holds about 800
#: statements, enough for a steady tail.  ``write_mix`` preloads 500 parts,
#: where one autocommit write already costs several ms on the seed
#: because its key checks are O(table).
READ_SCALE = dict(suppliers=2000, parts_per_supplier=10, agents_per_supplier=2)
ANALYTIC_SCALE = dict(suppliers=1000, parts_per_supplier=10, agents_per_supplier=2)
WRITE_SCALE = dict(suppliers=50, parts_per_supplier=10, agents_per_supplier=2)

SUPPLIER_COLS = "S.SNO, S.SNAME, S.SCITY, S.BUDGET, S.STATUS"
PART_COLS = "P.SNO, P.PNO, P.PNAME, P.OEM-PNO, P.COLOR"

POINT_TEMPLATES = (
    ("supplier_by_sno", f"SELECT {SUPPLIER_COLS} FROM SUPPLIER S WHERE S.SNO = :SNO"),
    ("part_by_key", f"SELECT {PART_COLS} FROM PARTS P WHERE P.SNO = :SNO AND P.PNO = :PNO"),
    ("part_by_oem", f"SELECT {PART_COLS} FROM PARTS P WHERE P.OEM-PNO = :OEM"),
    ("agent_by_ano", "SELECT A.SNO, A.ANO, A.ANAME, A.ACITY FROM AGENTS A WHERE A.ANO = :ANO"),
    # Theorem 1: SNO is the key, so the DISTINCT is stripped.
    ("distinct_supplier", "SELECT DISTINCT S.SNO, S.SNAME, S.SCITY FROM SUPPLIER S WHERE S.SNO = :SNO"),
)

WRITE_READ_KEY = f"SELECT {PART_COLS} FROM PARTS P WHERE P.SNO = :SNO AND P.PNO = :PNO"
WRITE_READ_OEM = f"SELECT {PART_COLS} FROM PARTS P WHERE P.OEM-PNO = :OEM"
WRITE_INSERT = "INSERT INTO PARTS VALUES (:SNO, :PNO, :PNAME, :OEM, :COLOR)"
WRITE_UPDATE = "UPDATE PARTS SET COLOR = :COLOR WHERE SNO = :SNO AND PNO = :PNO"
WRITE_DELETE = "DELETE FROM PARTS WHERE SNO = :SNO AND PNO = :PNO"
FULL_PARTS = f"SELECT {PART_COLS} FROM PARTS P"

#: ``write_mix`` shape: the hot UPDATE key set, and how many run-inserted
#: parts may be pending deletion (keeps the live row count steady).
HOT_KEYS = 8
MAX_PENDING = 8


@dataclass
class Op:
    """One statement the program receives, with its expected outcome.

    ``expected`` is the answer as a multiset digest (see :func:`digest`)
    for reads, or the affected-row count for writes.
    """

    kind: str
    sql: str
    params: dict | None
    expected: object
    is_write: bool = False
    template: str = ""


def digest(rows) -> tuple[int, int]:
    """An order-free multiset digest: row count and a sum of row hashes."""
    return len(rows), sum(hash(tuple(row)) for row in rows) & 0xFFFFFFFFFFFFFFFF


def supplier_data(seed: int, scale: dict):
    """The seeded instance; the program's own generator, our seed."""
    return generate(SupplierScale(seed=seed, **scale))


def _null(value):
    return NULL if value is None else value


def part_tuple(p) -> tuple:
    return (p.sno, p.pno, p.pname, _null(p.oem_pno), p.color)


def supplier_tuple(s) -> tuple:
    return (s.sno, s.sname, s.scity, s.budget, s.status)


# ----------------------------------------------------------------------
# point / http_point


def balanced(rng: random.Random, names, count: int) -> list:
    """*count* template names in shuffled rounds, each name once a round.

    Equal template shares keep the mix, and so ``ops_per_s`` and the
    median, from shifting with the seed.
    """
    order: list = []
    while len(order) < count:
        round_ = list(names)
        rng.shuffle(round_)
        order.extend(round_)
    return order[:count]


def point_ops(data, seed: int, count: int) -> list[Op]:
    """Uniform-key candidate-key lookups over the five point templates."""
    rng = random.Random(seed * 7919 + 1)
    suppliers = [supplier_tuple(s) for s in data.suppliers]
    parts = [part_tuple(p) for p in data.parts]
    oem_parts = [row for row in parts if row[3] is not NULL]
    agents = [(a.sno, a.ano, a.aname, a.acity) for a in data.agents]
    ops = []
    for name, sql in balanced(rng, POINT_TEMPLATES, count):
        if name == "supplier_by_sno":
            row = rng.choice(suppliers)
            params, rows = {"SNO": row[0]}, [row]
        elif name == "part_by_key":
            row = rng.choice(parts)
            params, rows = {"SNO": row[0], "PNO": row[1]}, [row]
        elif name == "part_by_oem":
            row = rng.choice(oem_parts)
            params, rows = {"OEM": row[3]}, [row]
        elif name == "agent_by_ano":
            row = rng.choice(agents)
            params, rows = {"ANO": row[1]}, [row]
        else:
            row = rng.choice(suppliers)
            params, rows = {"SNO": row[0]}, [row[:3]]
        ops.append(Op(name, sql, params, digest(rows), template=name))
    return ops


def point_warmup(data) -> list[Op]:
    """One statement per point template (builds the lazy indexes)."""
    return _one_per_template(point_ops(data, -1, 200))


def _one_per_template(ops: list[Op]) -> list[Op]:
    seen: dict[str, Op] = {}
    for op in ops:
        seen.setdefault(op.template, op)
    return list(seen.values())


# ----------------------------------------------------------------------
# analytic


class _Model:
    """Indexes over one instance for the analytic oracles."""

    def __init__(self, data) -> None:
        self.suppliers = {s.sno: supplier_tuple(s) for s in data.suppliers}
        self.parts = [part_tuple(p) for p in data.parts]
        self.by_color = defaultdict(list)
        self.by_pno = defaultdict(list)
        self.by_sno = defaultdict(list)
        for row in self.parts:
            self.by_color[row[4]].append(row)
            self.by_pno[row[1]].append(row)
            self.by_sno[row[0]].append(row)
        self.by_name = defaultdict(list)
        for row in self.suppliers.values():
            self.by_name[row[1]].append(row)
        self.names = sorted(self.by_name)
        self.agents_by_sno = defaultdict(list)
        self.agent_snos_by_city = defaultdict(set)
        for a in data.agents:
            self.agents_by_sno[a.sno].append((a.sno, a.ano, a.aname, a.acity))
            self.agent_snos_by_city[a.acity].add(a.sno)


def _e1(m, rng):
    c = rng.choice(COLORS)
    sql = ("SELECT DISTINCT S.SNO, P.PNO, P.PNAME FROM SUPPLIER S, PARTS P "
           f"WHERE S.SNO = P.SNO AND P.COLOR = '{c}'")
    return sql, {(p[0], p[1], p[2]) for p in m.by_color[c]}


def _e2(m, rng):
    c = rng.choice(COLORS)
    sql = ("SELECT DISTINCT S.SNAME, P.PNO, P.PNAME FROM SUPPLIER S, PARTS P "
           f"WHERE S.SNO = P.SNO AND P.COLOR = '{c}'")
    return sql, {(m.suppliers[p[0]][1], p[1], p[2]) for p in m.by_color[c]}


def _key_bound(m, rng, distinct: bool):
    k = rng.choice(list(m.suppliers))
    word = "DISTINCT" if distinct else "ALL"
    sql = (f"SELECT {word} S.SNO, SNAME, P.PNO, PNAME FROM SUPPLIER S, PARTS P "
           f"WHERE P.SNO = {k} AND S.SNO = P.SNO")
    rows = [(k, m.suppliers[k][1], p[1], p[2]) for p in m.by_sno[k]]
    return sql, set(rows) if distinct else rows


def _e3(m, rng):
    return _key_bound(m, rng, False)


def _e4(m, rng):
    return _key_bound(m, rng, True)


def _e6(m, rng):
    name = rng.choice(m.names)
    sql = ("SELECT DISTINCT S.SNO, PNO, PNAME, P.COLOR FROM SUPPLIER S, PARTS P "
           f"WHERE S.SNAME = '{name}' AND S.SNO = P.SNO")
    return sql, {(p[0], p[1], p[2], p[4]) for s in m.by_name[name] for p in m.by_sno[s[0]]}


def _e7(m, rng):
    name = rng.choice(m.names)
    pno = rng.randint(1, 12)
    sql = ("SELECT ALL S.SNO, S.SNAME FROM SUPPLIER S "
           f"WHERE S.SNAME = '{name}' AND EXISTS (SELECT * FROM PARTS P "
           f"WHERE S.SNO = P.SNO AND P.PNO = {pno})")
    rows = [(s[0], s[1]) for s in m.by_name[name]
            if any(p[1] == pno for p in m.by_sno[s[0]])]
    return sql, rows


def _e8(m, rng):
    c = rng.choice(COLORS)
    sql = ("SELECT ALL S.SNO, S.SNAME FROM SUPPLIER S WHERE EXISTS "
           f"(SELECT * FROM PARTS P WHERE P.SNO = S.SNO AND P.COLOR = '{c}')")
    snos = {p[0] for p in m.by_color[c]}
    return sql, [(s[0], s[1]) for s in m.suppliers.values() if s[0] in snos]


def _e9(m, rng):
    city = rng.choice(CITIES)
    a1, a2 = rng.sample(AGENT_CITIES, 2)
    sql = (f"SELECT ALL S.SNO FROM SUPPLIER S WHERE S.SCITY = '{city}' "
           "INTERSECT SELECT ALL A.SNO FROM AGENTS A "
           f"WHERE A.ACITY = '{a1}' OR A.ACITY = '{a2}'")
    agents = m.agent_snos_by_city[a1] | m.agent_snos_by_city[a2]
    return sql, {(s[0],) for s in m.suppliers.values() if s[2] == city and s[0] in agents}


def _e10(m, rng):
    pno = rng.randint(1, 12)
    sql = ("SELECT ALL S.* FROM SUPPLIER S, PARTS P "
           f"WHERE S.SNO = P.SNO AND P.PNO = {pno}")
    return sql, [m.suppliers[p[0]] for p in m.by_pno[pno]]


def _e11(m, rng):
    lo = rng.randint(1, len(m.suppliers) - 20)
    hi = lo + rng.randint(5, 20)
    pno = rng.randint(1, 12)
    sql = ("SELECT ALL S.* FROM SUPPLIER S, PARTS P "
           f"WHERE S.SNO BETWEEN {lo} AND {hi} AND S.SNO = P.SNO AND P.PNO = {pno}")
    return sql, [m.suppliers[p[0]] for p in m.by_pno[pno] if lo <= p[0] <= hi]


def _agents_key_bound(m, rng):
    k = rng.choice(list(m.suppliers))
    sql = ("SELECT DISTINCT S.SNO, S.SNAME, A.ANO, A.ANAME FROM SUPPLIER S, AGENTS A "
           f"WHERE A.SNO = {k} AND S.SNO = A.SNO")
    return sql, {(k, m.suppliers[k][1], a[1], a[2]) for a in m.agents_by_sno[k]}


#: The analytic shapes: paper Examples 1-4 and 6-11 plus Example 4's
#: key-bound join over AGENTS.  Eleven equally weighted templates put the
#: median inside one template's latency band instead of on a boundary
#: between two, which keeps ``read_p50_ms`` steady.
ANALYTIC_TEMPLATES = {
    "e1": _e1, "e2": _e2, "e3": _e3, "e4": _e4, "e6": _e6, "e7": _e7,
    "e8": _e8, "e9": _e9, "e10": _e10, "e11": _e11, "agents_key": _agents_key_bound,
}

#: Templates whose FROM blocks are single tables, so the strategy-free AST
#: interpreter (a nested-loop cross product) answers them in well under a
#: second at this scale.  Two-table products (1000 x 10 000 rows) would
#: take minutes there; those are checked against the Python model only.
INTERPRETER_TEMPLATES = ("e7", "e8", "e9")


def analytic_ops(data, seed: int, count: int) -> list[Op]:
    """Seeded analytic statements with literals inlined.

    Host variables and constants are written as literals, so the pool of
    distinct statement texts (thousands) exceeds the plan cache (256) and
    the uniqueness-analysis cache (512).
    """
    m = _Model(data)
    rng = random.Random(seed * 104729 + 2)
    memo: dict[str, tuple] = {}
    ops = []
    for name in balanced(rng, ANALYTIC_TEMPLATES, count):
        sql, rows = ANALYTIC_TEMPLATES[name](m, rng)
        if sql not in memo:
            memo[sql] = digest(list(rows))
        ops.append(Op(name, sql, None, memo[sql], template=name))
    return ops


def analytic_warmup(data) -> list[Op]:
    """One statement per analytic template, from a separate stream."""
    return _one_per_template(analytic_ops(data, -1, 400))


# ----------------------------------------------------------------------
# write_mix


@dataclass
class WriteModel:
    """The dict model of PARTS that ``write_mix`` is checked against."""

    rows: dict = field(default_factory=dict)

    @classmethod
    def initial(cls, data) -> "WriteModel":
        return cls({(p.sno, p.pno): part_tuple(p) for p in data.parts})

    def apply(self, op: Op) -> None:
        if op.kind == "insert":
            p = op.params
            self.rows[(p["SNO"], p["PNO"])] = (
                p["SNO"], p["PNO"], p["PNAME"], p["OEM"], p["COLOR"])
        elif op.kind == "delete":
            del self.rows[(op.params["SNO"], op.params["PNO"])]
        elif op.kind == "update":
            key = (op.params["SNO"], op.params["PNO"])
            self.rows[key] = self.rows[key][:4] + (op.params["COLOR"],)


def write_ops(data, seed: int, count: int) -> list[Op]:
    """Half key reads, half INSERT / DELETE / UPDATE on PARTS.

    DELETEs remove parts the run inserted earlier and INSERTs pause when
    ``MAX_PENDING`` of them await deletion, so the live row count holds
    steady; UPDATEs hit ``HOT_KEYS`` keys so dead versions pile up.
    """
    rng = random.Random(seed * 15485863 + 3)
    model = WriteModel.initial(data)
    live = list(model.rows)
    position = {key: i for i, key in enumerate(live)}
    hot = rng.sample(sorted(model.rows), HOT_KEYS)
    snos = sorted({p.sno for p in data.parts})
    next_oem = max(p.oem_pno or 0 for p in data.parts) + 1
    next_pno = 1000
    pending: list[tuple] = []
    ops = []

    def add_live(key):
        position[key] = len(live)
        live.append(key)

    def drop_live(key):
        i = position.pop(key)
        last = live.pop()
        if i < len(live):
            live[i] = last
            position[last] = i

    for _ in range(count):
        if rng.random() < 0.5:
            key = rng.choice(hot) if rng.random() < 0.25 else rng.choice(live)
            row = model.rows[key]
            if row[3] is not NULL and rng.random() < 0.5:
                op = Op("read_oem", WRITE_READ_OEM, {"OEM": row[3]}, digest([row]))
            else:
                op = Op("read_key", WRITE_READ_KEY, {"SNO": key[0], "PNO": key[1]},
                        digest([row]))
            ops.append(op)
            continue
        kind = rng.choice(("insert", "update", "delete"))
        if kind == "delete" and not pending:
            kind = "insert"
        elif kind == "insert" and len(pending) >= MAX_PENDING:
            kind = "delete"
        if kind == "insert":
            params = {"SNO": rng.choice(snos), "PNO": next_pno,
                      "PNAME": f"part-{next_pno}", "OEM": next_oem,
                      "COLOR": rng.choice(COLORS)}
            next_pno += 1
            next_oem += 1
            op = Op("insert", WRITE_INSERT, params, 1, is_write=True)
            pending.append((params["SNO"], params["PNO"]))
            add_live(pending[-1])
        elif kind == "delete":
            key = pending.pop(0)
            op = Op("delete", WRITE_DELETE, {"SNO": key[0], "PNO": key[1]}, 1,
                    is_write=True)
            drop_live(key)
        else:
            key = rng.choice(hot)
            op = Op("update", WRITE_UPDATE,
                    {"SNO": key[0], "PNO": key[1], "COLOR": rng.choice(COLORS)}, 1,
                    is_write=True)
        model.apply(op)
        ops.append(op)
    return ops


def write_warmup(data) -> list[Op]:
    """Read-only warm-up (writes would move the model's start state)."""
    rows = sorted(WriteModel.initial(data).rows.values())
    row = next(r for r in rows if r[3] is not NULL)
    return [
        Op("read_key", WRITE_READ_KEY, {"SNO": row[0], "PNO": row[1]}, digest([row])),
        Op("read_oem", WRITE_READ_OEM, {"OEM": row[3]}, digest([row])),
    ]


def final_parts_digest(data, ops: list[Op]) -> tuple[int, int]:
    """The PARTS multiset after *ops*, replayed on the dict model."""
    model = WriteModel.initial(data)
    for op in ops:
        if op.is_write:
            model.apply(op)
    return digest(list(model.rows.values()))
