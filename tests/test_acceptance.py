"""Acceptance suite: one test per criterion, each printing a pass/fail line
with its elapsed time and asserting the stated runtime bound."""

import json
import pathlib
import random
import time

import mlsspf as m
from mlsspf import hf
from mlsspf.certificate import PumpingEvent
from mlsspf.msrefine import StartConfiguration
from mlsspf.pumping import pump_rounds
from mlsspf.relations import BlockBijection

from conftest import (degenerate, last_stage_weak, rand_colored_board,
                      rand_partition, rand_transitive_universe,
                      set_partitions, witness_family)
from make_golden import (CERTIFIED_WIDE_SEEDS, WIDE_SEEDS, certified_outcome,
                         pumped_digest, wide_outcome)
from oracles import drop_finite_literals, finer_than, simulates_upwards

GOLDEN = pathlib.Path(__file__).parent / "golden" / "decide_corpus.json"
PUMPED_GOLDEN = (pathlib.Path(__file__).parent / "golden"
                 / "pumped_certificates.json")
WIDE_GOLDEN = pathlib.Path(__file__).parent / "golden" / "pumped_wide.json"
CERTIFIED_GOLDEN = (pathlib.Path(__file__).parent / "golden"
                    / "certified_wide.json")


class Timer:
    """Bounds the CPU time of this process, which other load on the host
    does not inflate as it does wall-clock time; prints both."""

    def __init__(self, name, bound):
        self.name = name
        self.bound = bound

    def __enter__(self):
        self.t0, self.cpu0 = time.monotonic(), time.process_time()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.t0
        cpu = time.process_time() - self.cpu0
        status = "PASS" if exc_type is None else "FAIL"
        print(f"\n[{status}] {self.name}: {cpu:.2f}s CPU, {elapsed:.2f}s wall "
              f"(bound {self.bound}s CPU)")
        if exc_type is None:
            assert cpu < self.bound, f"{self.name} exceeded {self.bound}s CPU"
        return False


def test_criterion_1_assembly_oracle_equivalence():
    rng = random.Random(101)
    with Timer("criterion 1: assembly operator vs brute force, 500 families", 10):
        for _ in range(500):
            n = rng.randint(0, 12)
            universe = rand_transitive_universe(rng, n)
            k = rng.randint(0, min(4, n)) if n else 0
            blocks = [[] for _ in range(k)]
            for i, e in enumerate(universe):
                blocks[i % k].append(e) if k else None
            blocks = [z for z in blocks if z]
            got = m.pow_star(blocks)
            assert len(got) == m.pow_star_size(blocks)
            elems = sorted({e for z in blocks for e in z}, key=hf.order_key)
            expected = set()
            for mask in range(2 ** len(elems)):
                pick = [elems[i] for i in range(len(elems)) if mask >> i & 1]
                if all(set(pick) & set(z) for z in blocks):
                    expected.add(m.make_set(pick))
            assert set(got) == expected


def test_criterion_2_venn_coarseness():
    rng = random.Random(102)
    with Timer("criterion 2: Venn coarseness vs exhaustive partitions, "
               "200 assignments", 30):
        for _ in range(200):
            pool = rand_transitive_universe(rng, rng.randint(0, 8))
            bindings = {
                f"v{i}": m.make_set(e for e in pool if rng.random() < 0.6)
                for i in range(rng.randint(1, 4))
            }
            M = m.Assignment(bindings)
            partition, _ = m.venn_partition(M)
            universe = sorted(M.value_union(), key=hf.order_key)
            values = [set(v.elements) for v in M.bindings.values()]
            for candidate in set_partitions(universe):
                if all(not (set(b) & val) or set(b) <= val
                       for b in candidate for val in values):
                    assert finer_than(candidate, partition)


def test_criterion_3_process_synthesis():
    rng = random.Random(103)
    with Timer("criterion 3: synthesize/validate round trip, "
               "200 transitive partitions", 30):
        for _ in range(200):
            universe = rand_transitive_universe(rng, rng.randint(1, 20))
            partition = rand_partition(rng, universe)
            proc = m.synthesize_process(partition)
            report = m.validate_process(proc)
            assert report.ok, str(report)
            assert not proc.weak
            assert set(proc.final_blocks()) == set(partition)


def _imitation_instances():
    rng = random.Random(104)
    for _ in range(140):
        universe = rand_transitive_universe(rng, rng.randint(1, 10))
        partition = rand_partition(rng, universe, max_blocks=4)
        proc = m.synthesize_process(partition)
        board = rand_colored_board(proc, partition, rng)
        yield board, BlockBijection(partition, partition)
    for _ in range(30):
        universe = rand_transitive_universe(rng, rng.randint(1, 8))
        partition = rand_partition(rng, universe, max_blocks=4)
        proc = m.synthesize_process(partition)
        board = rand_colored_board(proc, partition, rng)
        k_prime = rng.randint(0, proc.xi)
        start = degenerate(proc, k_prime)
        cand, overlay, witness = m.paste_segment(proc, board, start, proc.xi)
        yield board, BlockBijection(partition, cand.final_blocks())
    for formula, assignment in witness_family():
        for rounds in (1, 2, 3):
            cert = m.certify_witness(formula, assignment)
            ext = m.extend_certificate(cert, rounds)
            partition, _, board = m.canonical_board(formula, cert.assignment)
            yield board, BlockBijection(partition,
                                        ext.pumped.process.final_blocks())


def test_criterion_4_imitation_implies_simulation():
    with Timer("criterion 4: imitation-upwards implies simulation-upwards, "
               ">=200 instances", 60):
        count = 0
        for board, bijection in _imitation_instances():
            imit = m.imitates(board, bijection)
            assert imit.ok, str(imit)
            sim = simulates_upwards(board, bijection)
            assert sim.ok, str(sim)
            count += 1
        assert count >= 200, count


def test_criterion_5_pumping_end_to_end():
    with Timer("criterion 5: certify + pump(5) + paste preserves literals, "
               "EX1 and generated formulas", 60):
        cases = witness_family()
        assert len(cases) >= 11  # EX1 plus at least ten generated
        for formula, assignment in cases:
            cert = m.certify_witness(formula, assignment)
            ext = m.extend_certificate(cert, 5)
            pumped = ext.pumped
            assert pumped.weak_report.ok
            assert pumped.segment_report.ok
            assert pumped.upward_report.ok
            assert pumped.imitation_report.ok
            assert pumped.transfer_report.ok, formula.render()
            base = drop_finite_literals(formula)
            before = m.evaluate(base, cert.assignment).results
            after = m.evaluate(base, pumped.final_assignment).results
            assert before == after
            _, _, board = m.canonical_board(formula, cert.assignment)
            cycle_places = cert.event.cycle.place_set()
            prev = {q: len(cert.process.stages[cert.event.i0][q])
                    for q in cycle_places}
            for boundary in pumped.round_boundaries:
                for q in cycle_places:
                    size = len(pumped.process.stages[boundary][q])
                    assert size > prev[q], "cycle place must grow every round"
                    prev[q] = size
            for q in board.red:
                assert len(pumped.process.final_blocks()[q]) == \
                    len(cert.process.final_blocks()[q])


def test_criterion_6_appendix_checks_on_pumped_ex1(ex1):
    with Timer("criterion 6: start-condition ledger on pumped EX1", 5):
        cert = m.certify_witness(ex1.formula, ex1.assignment)
        pumped, overlay, _, _ = pump_rounds(ex1.process, cert.event, 1)
        report = last_stage_weak(ex1.process, ex1.board, cert.event.i0,
                                 pumped, overlay, cert.cover)
        by_tag = {i.check.split(" ")[0]: i.ok for i in report.items}
        for tag in ["(i)", "(vii)", "(viii)", "(x)", "(a)", "(b)", "(c)"]:
            assert by_tag[tag], f"{tag} failed:\n{report}"
        assert report.ok


def _paste_instances():
    rng = random.Random(107)
    made = 0
    while made < 70:
        universe = rand_transitive_universe(rng, rng.randint(1, 8))
        partition = rand_partition(rng, universe, max_blocks=4)
        proc = m.synthesize_process(partition)
        board = rand_colored_board(proc, partition, rng)
        k_prime = rng.randint(max(0, proc.xi - 5), proc.xi)
        yield proc, board, degenerate(proc, k_prime)
        made += 1
    pumped = 0
    for formula, assignment in witness_family() * 3:
        if pumped >= 30:
            break
        cert = m.certify_witness(formula, assignment)
        partition, im, board = m.canonical_board(formula, cert.assignment)
        proc = cert.process
        for i0 in range(proc.xi, 0, -1):
            rep = m.is_pumping_event(proc, board, cert.event.q0, i0,
                                     cert.event.cycle)
            if not rep.ok:
                continue
            event = PumpingEvent(cert.event.q0, i0, cert.event.cycle)
            cand, overlay, _, _ = pump_rounds(proc, event, pumped % 2 + 1)
            if not last_stage_weak(proc, board, i0, cand, overlay,
                                   cert.cover).ok:
                continue
            yield proc, board, StartConfiguration(cand, overlay, i0,
                                                  cert.cover)
            pumped += 1
            break


def test_criterion_7_pasting_build_then_verify():
    with Timer("criterion 7: paste_segment then check_segment_imitation, "
               "100 pairs", 60):
        count = 0
        for proc, board, start in _paste_instances():
            k_second = min(proc.xi, start.k_prime + 5)
            cand, overlay, witness = m.paste_segment(proc, board, start,
                                                     k_second)
            report = m.check_segment_imitation(proc, board, cand, overlay,
                                               witness)
            assert report.ok, str(report)
            count += 1
        assert count >= 100, count


def test_criterion_8_decide_golden_corpus():
    with Timer("criterion 8: 30-formula decide corpus, byte-identical", 120):
        corpus = json.loads(GOLDEN.read_text())
        assert len(corpus["entries"]) == 30
        for entry in corpus["entries"]:
            formula = m.parse(entry["formula"])
            budget = m.SearchBudget(
                max_rank=entry["budget"]["maxRank"],
                max_universe=entry["budget"]["maxUniverse"])
            result = m.decide(formula, budget)
            assert result.verdict == entry["verdict"], entry["name"]
            got = json.dumps(result.to_json(), sort_keys=True, indent=2)
            assert got == entry["result"], f"{entry['name']} output drifted"


def test_pumped_certificates_golden():
    corpus = json.loads(PUMPED_GOLDEN.read_text())
    assert len(corpus["entries"]) == 3 * len(witness_family())
    for entry in corpus["entries"]:
        formula = m.parse(entry["formula"])
        assignment, _ = m.Assignment.from_json(entry["assignment"])
        got = pumped_digest(formula, assignment, entry["rounds"])
        assert got == entry["sha256"], (entry["formula"], entry["rounds"])


def test_pumped_wide_golden():
    # Failing pumps too: failing reports, CardinalityDeficit, NoLocalTrash.
    corpus = json.loads(WIDE_GOLDEN.read_text())
    assert [e["seed"] for e in corpus["entries"]] == list(WIDE_SEEDS)
    for entry in corpus["entries"]:
        assert wide_outcome(entry["seed"]) == entry["outcome"], entry["seed"]


def test_certified_wide_golden():
    # Refusals too: NoEvent and CoverMissesVariable with their messages.
    corpus = json.loads(CERTIFIED_GOLDEN.read_text())
    assert [e["seed"] for e in corpus["entries"]] == list(CERTIFIED_WIDE_SEEDS)
    for entry in corpus["entries"]:
        assert certified_outcome(entry["seed"]) == entry["outcome"], entry["seed"]
