DUNE ?= dune

.PHONY: all build test bench bench-parallel faults lint ltl por par resilience slice zone clean fmt

all: build

build:
	$(DUNE) build

test:
	$(DUNE) runtest

# Full benchmark run: table regeneration check, parallel-exploration
# report, then the bechamel micro-benchmarks.
bench:
	$(DUNE) exec bench/main.exe

# Deterministic fault-injection campaign gate: the fixed variants must
# survive the default adversary with zero violations, the unfixed ones
# must be refuted (with a shrunk minimal schedule) at a table F point,
# and the JSON report must reproduce byte-identically.
faults:
	$(DUNE) exec bin/hbfault.exe -- smoke

# Static-analysis gate: every shipped model must lint clean under
# --strict (warnings gate too; infos do not), and the JSON report must
# reproduce byte-identically across two runs.
lint:
	$(DUNE) exec bin/hblint.exe -- --strict
	$(DUNE) exec bin/hblint.exe -- --json > _build/hblint-1.json
	$(DUNE) exec bin/hblint.exe -- --json > _build/hblint-2.json
	cmp _build/hblint-1.json _build/hblint-2.json

# Liveness gate: on every variant at its race point the fixed model
# satisfies the R1-R3 liveness formulations under weak fairness, the
# unfixed model is refuted on R2/R3 with a concrete lasso, both
# emptiness engines agree, and the JSON report must reproduce
# byte-identically across two runs.
ltl:
	$(DUNE) exec bin/hbltl.exe -- smoke
	$(DUNE) exec bin/hbltl.exe -- check R2 -v binary --fixed --json > _build/hbltl-1.json
	$(DUNE) exec bin/hbltl.exe -- check R2 -v binary --fixed --json > _build/hbltl-2.json
	cmp _build/hbltl-1.json _build/hbltl-2.json

# Partial-order-reduction gate: the qcheck parity harness (reduced and
# full explorations agree on monitor and LTL verdicts, reduced
# counterexamples replay, reduced LTS weak-trace equivalent), the
# lowering suite (full and reduced LTSs of all six variants pinned by
# digest, random specs identical to the term interpreter), then the
# six-variant smoke: every requirement verdict identical full vs
# reduced, at least one variant at least halved, JSON byte-identical.
# Last, the PA state-space gate: the full and reduced state and
# transition counts of all six variants must match
# test/golden/pa-stats.txt byte for byte.
por:
	$(DUNE) exec test/main.exe -- test por
	$(DUNE) exec test/main.exe -- test lowering
	$(DUNE) exec bin/hbverify.exe -- pa-smoke
	$(DUNE) exec bin/hbverify.exe -- pa-smoke --json > _build/hbpor-1.json
	$(DUNE) exec bin/hbverify.exe -- pa-smoke --json > _build/hbpor-2.json
	cmp _build/hbpor-1.json _build/hbpor-2.json
	$(DUNE) exec bin/hbexplore.exe -- pa-stats --reduce > _build/hbpastats.txt
	cmp _build/hbpastats.txt test/golden/pa-stats.txt

# Parallel-engine gate: the qcheck parity harness for the parallel
# engine (spaces byte-identical to Mc.Explore across stores x domain
# counts, goal and truncation verdicts in parity), the
# store-compression units (hash-compaction, bitstate coverage
# estimates, collision injection), the POR soundness suite including
# the parallel cycle proviso, then a CLI check that hbexplore stats
# prints the same bytes, plain and --json, on the sequential route
# (-j 1) and the parallel one (-j 2).
par:
	$(DUNE) exec test/main.exe -- test pexplore
	$(DUNE) exec test/main.exe -- test store
	$(DUNE) exec test/main.exe -- test por
	for j in 1 2; do \
	  $(DUNE) exec bin/hbexplore.exe -- stats -v dynamic --tmax 20 -j $$j \
	    > _build/hbpar-$$j.out && \
	  $(DUNE) exec bin/hbexplore.exe -- stats -v dynamic --tmax 20 -j $$j \
	    --json > _build/hbpar-$$j.json || exit 1; \
	done
	cmp _build/hbpar-1.out _build/hbpar-2.out
	cmp _build/hbpar-1.json _build/hbpar-2.json

# Resilience gate: the budget/checkpoint/degradation/quarantine suite
# (qcheck suspend/resume round trips, store-ladder degradation, raising
# successors quarantined at 4 domains), then a live interrupt smoke —
# SIGINT a running hbexplore mid-exploration, require the partial
# report (exit 4) plus a checkpoint, and resume it to a byte-identical
# result.
resilience:
	$(DUNE) exec test/main.exe -- test resilience
	$(DUNE) build bin/hbexplore.exe
	rm -f _build/hbres.ck
	timeout 300 _build/default/bin/hbexplore.exe stats -v dynamic --tmax 40 \
	  > _build/hbres-clean.out
	timeout --preserve-status -s INT 0.4 \
	  _build/default/bin/hbexplore.exe stats -v dynamic --tmax 40 \
	  --checkpoint _build/hbres.ck > _build/hbres-int.out 2>/dev/null; \
	  test $$? -eq 4
	test -f _build/hbres.ck
	timeout 300 _build/default/bin/hbexplore.exe stats -v dynamic --tmax 40 \
	  --resume _build/hbres.ck > _build/hbres-resumed.out 2>/dev/null
	cmp _build/hbres-clean.out _build/hbres-resumed.out

# Slicing gate: the qcheck parity harness (sliced and full timed-automata
# explorations agree on every safety and LTL verdict, sliced
# counterexamples replay in the full model via the certificate), then
# the six-variant TA slice smoke: verdict parity per requirement, at
# least one variant's space at least halved, at least one sliced
# counterexample replayed, JSON byte-identical across two runs.
slice:
	$(DUNE) exec test/main.exe -- test slice
	$(DUNE) exec bin/hbverify.exe -- slice-smoke
	$(DUNE) exec bin/hbverify.exe -- slice-smoke --json > _build/hbslice-1.json
	$(DUNE) exec bin/hbverify.exe -- slice-smoke --json > _build/hbslice-2.json
	cmp _build/hbslice-1.json _build/hbslice-2.json

# Zone-engine gate: the qcheck discrete-vs-zone agreement harness (DBM
# units, random-network verdict parity, guided replay of zone
# counterexamples), the location-LU analysis suite (backward-fixpoint
# units, three-way verdict parity discrete vs global vs location LU,
# zone-count monotonicity), then the six-variant zone smoke (R1-R3
# verdict parity discrete vs dense-time in both LU modes, subsumption
# active, location LU never storing more zones, JSON byte-identical
# across two runs), the FC-suite LU A/B (verdicts match the specs in
# both modes, byte-identical JSON), a Fontana-Cleaveland spot check
# through the .xta front end, and a drift check that the shipped
# examples/fc/*.xta are exactly what the Fc registry prints.
zone:
	$(DUNE) exec test/main.exe -- test zone
	$(DUNE) exec test/main.exe -- test lubounds
	$(DUNE) exec bin/hbverify.exe -- zone-smoke
	$(DUNE) exec bin/hbverify.exe -- zone-smoke --json > _build/hbzone-1.json
	$(DUNE) exec bin/hbverify.exe -- zone-smoke --json > _build/hbzone-2.json
	cmp _build/hbzone-1.json _build/hbzone-2.json
	$(DUNE) exec bin/hbexplore.exe -- fc --zones
	$(DUNE) exec bin/hbexplore.exe -- fc --zones --json > _build/hbfczones-1.json
	$(DUNE) exec bin/hbexplore.exe -- fc --zones --json > _build/hbfczones-2.json
	cmp _build/hbfczones-1.json _build/hbfczones-2.json
	$(DUNE) exec bin/hbverify.exe -- xta examples/fc/fischer.xta --forbid P1.CS,P2.CS
	for m in fischer fischer-broken csma fddi grc leader; do \
	  $(DUNE) exec bin/hbexplore.exe -- fc $$m > _build/fc-$$m.xta && \
	  cmp _build/fc-$$m.xta examples/fc/$$m.xta || exit 1; \
	done

# Just the sequential-vs-parallel exploration comparison.
bench-parallel:
	$(DUNE) exec bench/main.exe -- --parallel-only

clean:
	$(DUNE) clean

fmt:
	$(DUNE) fmt
