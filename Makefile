# Convenience targets; all assume the repo root as CWD.
# PYTHONPATH=src keeps the package importable without an install.

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test lint bench bench-smoke bench-traffic bench-channels bench-cache bench-kernels bench-service bench-gate chaos figures verify-fuzz coverage coverage-gate docs-check service-smoke ci-local

test: lint docs-check ## tier-1 test suite (cheap static gates first)
	$(PYTHON) -m pytest -x -q

lint:            ## ruff check + format check (skips with a warning when ruff is absent, unless CI)
	@if $(PYTHON) -c "import ruff" 2>/dev/null || command -v ruff >/dev/null 2>&1; then \
		ruff check . && ruff format --check .; \
	elif [ -n "$$CI" ]; then \
		echo "lint: ruff is required in CI (pip install -e .[dev])"; exit 1; \
	else \
		echo "lint: ruff not installed, skipping (install with pip install -e .[dev])"; \
	fi

chaos:           ## fault-injection/resilience suite + recovery-overhead smoke bench
	$(PYTHON) -m pytest -q -m chaos
	$(PYTHON) -m pytest -q -m chaos benchmarks

docs-check:      ## every registered name documented in its docs section + doc snippets run
	$(PYTHON) tools/docs_check.py

bench:           ## full benchmark suite (writes BENCH_RESULTS.json)
	$(PYTHON) -m pytest benchmarks -q

bench-smoke:     ## small end-to-end benches + BENCH_RESULTS.json entries
	$(PYTHON) -m pytest benchmarks -q -m smoke

bench-traffic:   ## traffic-scenario smoke bench (workload stack + stability bisection)
	$(PYTHON) -m pytest benchmarks/test_traffic_smoke.py -q -s

bench-channels:  ## channel x power grid smoke bench (pluggable-law replay path)
	$(PYTHON) -m pytest benchmarks/test_channel_smoke.py -q -s

bench-cache:     ## schedule-cache smoke bench (exact-hit serving vs uncached)
	$(PYTHON) -m pytest benchmarks/test_cache_smoke.py -q -s

bench-kernels:   ## compute-kernel micro-benchmarks (feasibility/F-build/distance/submit path)
	$(PYTHON) -m pytest benchmarks/test_kernel_micro.py -q -s

bench-service:   ## serving smoke bench: 1000 concurrent clients vs a live server
	$(PYTHON) -m pytest benchmarks/test_service_smoke.py -q -s

service-smoke:   ## service tier: unit suites + a self-serving CLI load test
	$(PYTHON) -X dev -m pytest tests/test_service_broker.py tests/test_service_server.py tests/test_service_codec.py tests/test_service_loadgen.py tests/test_service_concurrency.py tests/test_verify_service.py -q
	$(PYTHON) -m repro loadtest --clients 200 --ticks 2 --seed 7 --min-ok 200 --min-peak 200 --max-transport-errors 0 >/dev/null

bench-gate:      ## bench-smoke + kernel benches against the committed baseline (fails on >50% regression)
	@cp BENCH_RESULTS.json /tmp/bench_baseline.json
	$(MAKE) bench-smoke
	$(MAKE) bench-kernels
	$(PYTHON) tools/bench_gate.py --baseline /tmp/bench_baseline.json --current BENCH_RESULTS.json

figures:         ## regenerate the paper panels (small config)
	$(PYTHON) -m repro figures

verify-fuzz:     ## differential + metamorphic oracle over fuzzed scenarios
	$(PYTHON) -m repro verify --budget 300 --seed 0 --time-budget 120

coverage:        ## tier-1 suite under coverage with a floor (needs pytest-cov; required in CI)
	@if $(PYTHON) -c "import pytest_cov" 2>/dev/null; then \
		$(PYTHON) -m pytest -q --cov=src/repro --cov-report=term-missing --cov-fail-under=85; \
	elif [ -n "$$CI" ]; then \
		echo "coverage: pytest-cov is required in CI (pip install -e .[dev])"; exit 1; \
	else \
		echo "pytest-cov not installed; running plain test suite instead"; \
		$(PYTHON) -m pytest -q; \
	fi

coverage-gate:   ## stdlib coverage ratchet vs tools/coverage_baseline.json (+ repro.cache 90% / repro.service 85% floors)
	$(PYTHON) tools/coverage_gate.py

ci-local:        ## everything the CI pipeline runs, locally
	$(MAKE) lint
	$(MAKE) docs-check
	$(PYTHON) -m pytest -x -q
	$(MAKE) service-smoke
	$(MAKE) verify-fuzz
	$(MAKE) bench-gate
