# Convenience targets for the VLSA reproduction.

PY ?= python

.PHONY: install lint test bench examples experiments clean

install:
	pip install -e .

lint:
	ruff check src tests examples

test:
	$(PY) -m pytest tests/

bench:
	$(PY) -m repro bench run

examples:
	for e in quickstart crypto_attack vlsa_pipeline design_space \
	         speculative_multiplier formal_verification; do \
	    $(PY) examples/$$e.py || exit 1; done

experiments:
	$(PY) -m repro all

clean:
	rm -rf results rtl_out .pytest_cache
	find . -name __pycache__ -type d -exec rm -rf {} +
