GO ?= go
SSILINT := bin/ssilint

.PHONY: all build test mutants bench lint fmt clean

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# mutants runs the mutation table (mutants_test.go): each entry is applied
# to a copy of the module, and its tests must fail there.
mutants:
	$(GO) test -count=1 -run '^TestMutants$$' .

# bench runs the repository's benchmark (BENCHMARK.json, bench/README.md):
# one measured and one traced run per workload, results in bench/out/.
# `make bench BENCHFLAGS="--repeat 10"` for the spread of every metric.
bench:
	bench/run.sh $(BENCHFLAGS)

# lint runs stock vet plus ssilint, the repo's own invariant checker
# (lock acquisition order, constructor resource leaks, enum switch
# exhaustiveness — see docs/invariants.md). The tool is rebuilt from
# source on demand; -vettool hands it every package via vet's driver,
# so _test.go files are covered too.
lint: $(SSILINT)
	$(GO) vet ./...
	$(GO) vet -vettool=$(SSILINT) ./...

$(SSILINT): $(wildcard cmd/ssilint/*.go internal/lint/*.go internal/lint/load/*.go)
	@mkdir -p bin
	$(GO) build -o $@ ./cmd/ssilint

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:" >&2; echo "$$out" >&2; exit 1; \
	fi

clean:
	rm -rf bin
