GO ?= go
FUZZTIME ?= 10s
# Coverage floors; `make cover` fails below them.
OBS_COVER_FLOOR ?= 90.0
QUANT_COVER_FLOOR ?= 90.0
SCHED_COVER_FLOOR ?= 90.0
REGISTRY_COVER_FLOOR ?= 90.0

.PHONY: all build test race fuzz-smoke vet bench cover loc unreached

all: vet build test

build:
	$(GO) build ./...

# Tier-1 gate: everything must pass. The AllocsPerRun gates then run again
# at forced pool sizes: "0 allocs/op" must hold whatever the host's core
# count makes the default pool (internal/compiler never touches the pool).
# The purego run covers the whole tree on the portable kernels — the single
# specification of every exact-tier dot, and the only kernels a non-amd64
# (i.e. mobile) target runs — and the copy-decoding bundle loader;
# internal/bench is left out for its run time, not because it fails.
ALLOC_GATES = Alloc
ALLOC_PKGS = ./internal/tensor ./internal/nn ./internal/obs ./internal/rtmobile ./internal/sched ./internal/serve

# $(call filtered,ENV,FLAGS,PATTERN,PACKAGES) is `ENV go test FLAGS -run
# PATTERN PACKAGES`, refused when PATTERN selects no test in one of the
# packages: go test exits 0 when -run matches nothing, so a renamed test
# would otherwise empty a race or Alloc gate without anyone noticing.
define filtered
	@for p in $(4); do $(GO) test -list '$(3)' $$p | grep -q '^Test' || \
		{ echo "-run '$(3)' selects no test in $$p"; exit 1; }; done
	$(1) $(GO) test $(2) -run '$(3)' $(4)
endef

test:
	$(GO) test ./...
	$(GO) test -tags=purego $$($(GO) list ./... | grep -v /internal/bench$$)
	$(call filtered,RTMOBILE_WORKERS=1,-count=1,$(ALLOC_GATES),$(ALLOC_PKGS))
	$(call filtered,RTMOBILE_WORKERS=2,-count=1,$(ALLOC_GATES),$(ALLOC_PKGS))
	$(call filtered,RTMOBILE_WORKERS=8,-count=1,$(ALLOC_GATES),$(ALLOC_PKGS))

# Full suite under the race detector; the concurrency stress tests in
# internal/rtmobile and internal/compiler are written for this target. The
# following invocations re-run the engine's batched suites with forced pool
# sizes so InferBatchInto's per-utterance sharding race-tests at several
# pool sizes; the last four do the same for the scheduler (dispatch on arrival,
# grow/shrink, cancellation), the serve tier's pooled JSON path, and lane
# migration between leases.
race:
	$(GO) test -race ./...
	$(call filtered,RTMOBILE_WORKERS=2,-race,Batch,./internal/rtmobile)
	$(call filtered,RTMOBILE_WORKERS=8,-race,Batch,./internal/rtmobile)
	$(call filtered,RTMOBILE_WORKERS=2,-race,Quant,./internal/rtmobile)
	$(call filtered,RTMOBILE_WORKERS=8,-race,Quant,./internal/rtmobile)
	$(call filtered,RTMOBILE_WORKERS=2,-race,Fast|Precision,./internal/rtmobile)
	$(call filtered,RTMOBILE_WORKERS=8,-race,Fast|Precision,./internal/rtmobile)
	$(call filtered,RTMOBILE_WORKERS=2,-race,Epilogue|Fused,./internal/tensor ./internal/nn ./internal/rtmobile)
	$(call filtered,RTMOBILE_WORKERS=8,-race,Epilogue|Fused,./internal/tensor ./internal/nn ./internal/rtmobile)
	RTMOBILE_METRICS=1 $(GO) test -race ./internal/obs
	$(call filtered,RTMOBILE_METRICS=1,-race,Serve|Obs|Metrics|Trac,./cmd/rtmobile ./internal/rtmobile)
	RTMOBILE_METRICS=1 $(GO) test -race ./internal/sched
	$(call filtered,RTMOBILE_METRICS=1,-race -count=2,Serve,./cmd/rtmobile)
	$(call filtered,RTMOBILE_METRICS=1 RTMOBILE_WORKERS=2,-race,Trace|Tail|SLO,./internal/obs ./internal/sched ./internal/serve)
	$(call filtered,RTMOBILE_METRICS=1 RTMOBILE_WORKERS=8,-race,Trace|Tail|SLO,./internal/obs ./internal/sched ./internal/serve)
	$(call filtered,RTMOBILE_WORKERS=2,-race,Swap|Registry,./internal/registry ./cmd/rtmobile)
	$(call filtered,RTMOBILE_WORKERS=8,-race,Swap|Registry,./internal/registry ./cmd/rtmobile)
	$(call filtered,RTMOBILE_WORKERS=2,-race,Differential|LoadersRefuse,./internal/rtmobile)
	$(call filtered,RTMOBILE_WORKERS=8,-race,Differential|LoadersRefuse,./internal/rtmobile)
	RTMOBILE_METRICS=1 RTMOBILE_WORKERS=2 $(GO) test -race -count=2 ./internal/sched ./internal/serve
	RTMOBILE_METRICS=1 RTMOBILE_WORKERS=8 $(GO) test -race -count=2 ./internal/sched ./internal/serve
	$(call filtered,RTMOBILE_WORKERS=2,-race,Migration|CopyLane,./internal/nn ./internal/rtmobile)
	$(call filtered,RTMOBILE_WORKERS=8,-race,Migration|CopyLane,./internal/nn ./internal/rtmobile)

# Short run of every fuzz target (compiler shapes +
# pack lowering with its dense-order property: packed RunAdd ≡
# tensor.MatVecAdd on BSP-projected matrices + quantized programs ≡ Pack of
# their dequantized values + fast-tier tolerance
# equivalence + bundle mapping + the scheduler's trace invariants + the
# /infer body scanner against encoding/json + the eight-row exact segment
# driver against the rolled per-row dot, bit for bit).
fuzz-smoke:
	$(GO) test -run=^$$ -fuzz=FuzzDotSegF64 -fuzztime=$(FUZZTIME) ./internal/tensor
	$(GO) test -run=^$$ -fuzz=FuzzFastEquiv -fuzztime=$(FUZZTIME) ./internal/tensor
	$(GO) test -run=^$$ -fuzz=FuzzEpilogueEquiv -fuzztime=$(FUZZTIME) ./internal/tensor
	$(GO) test -run=^$$ -fuzz=FuzzCompileProgram -fuzztime=$(FUZZTIME) ./internal/compiler
	$(GO) test -run=^$$ -fuzz=FuzzPackProgram -fuzztime=$(FUZZTIME) ./internal/compiler
	$(GO) test -run=^$$ -fuzz=FuzzRunBatch -fuzztime=$(FUZZTIME) ./internal/compiler
	$(GO) test -run=^$$ -fuzz=FuzzPackQuant -fuzztime=$(FUZZTIME) ./internal/compiler
	$(GO) test -run=^$$ -fuzz=FuzzSchedTrace -fuzztime=$(FUZZTIME) ./internal/sched
	$(GO) test -run=^$$ -fuzz=FuzzDecodeFrames -fuzztime=$(FUZZTIME) ./internal/serve
	$(GO) test -run=^$$ -fuzz=FuzzMapBundle -fuzztime=$(FUZZTIME) ./internal/rtmobile
	$(GO) test -run=^$$ -fuzz=FuzzTraceparent -fuzztime=$(FUZZTIME) ./internal/obs

# $(call nofma32,PKG,FUNCS) cross-compiles internal/PKG for arm64 with -S
# and fails when one of FUNCS (package-qualified, as the listing names them)
# holds a float32 fused multiply-add, or is missing from the listing: a
# renamed function would otherwise empty the gate. The exact tier is
# bit-identical to nn.Forward only while no float32 product on it is fused,
# and training writes the same model bytes on every target only while none
# in its backward pass, optimizer step and gradient kernels is; amd64 never
# fuses, arm64 does. Float64 FMADDD (DotF64) stays allowed: a
# float32×float32 product is exact in float64.
define nofma32
	@GOARCH=arm64 $(GO) build -gcflags='rtmobile/internal/$(1)=-S' ./internal/$(1) 2>&1 | awk -v want='$(2)' ' \
		BEGIN { n = split(want, w, " "); for (i = 1; i <= n; i++) need["rtmobile/internal/" w[i]] = 1 } \
		/ STEXT / { fn = $$1; if (fn in need) seen[fn] = 1; next } \
		(fn in need) && /\t(FMADDS|FMSUBS|FNMADDS|FNMSUBS)\t/ { print "arm64 fuses a float32 multiply-add in " fn ":" $$0; bad = 1 } \
		END { for (f in need) if (!(f in seen)) { print f " is missing from the arm64 listing"; bad = 1 }; exit bad }'
endef

# Static checks: vet under both build configurations — the default build
# (which includes the unsafe mmap/alias files in internal/rtmobile) and
# the purego fallback used on targets without unsafe — a gofmt gate, and
# the no-fusion gate of the exact tier and of training on arm64 (nofma32
# above).
vet:
	$(GO) vet ./...
	GOFLAGS=-tags=purego $(GO) vet ./...
	@fmt_out=$$(gofmt -l .); if [ -n "$$fmt_out" ]; then \
		echo "gofmt needed on:"; echo "$$fmt_out"; exit 1; fi
	$(call nofma32,tensor,tensor.GRUEpilogue tensor.Sigmoid32 tensor.Tanh32 tensor.Axpy tensor.OuterAdd tensor.outerAddRange tensor.OuterAdd.func1 tensor.MatTVecAdd tensor.matTVecAddCols tensor.MatTVecAdd.func1)
	$(call nofma32,nn,nn.(*GRU).Forward nn.(*Dense).Forward nn.(*GRU).Backward nn.(*Adam).Step)

# Regenerates the paper tables, then the two studies no `go run
# ./benchmark` workload covers yet — precision tiers and the open-loop
# saturation knee — as machine-readable artifacts.
bench:
	$(GO) test -bench=. -benchmem
	$(GO) run ./cmd/rtmobile bench -exp precision -json BENCH_7.json
	$(GO) run ./cmd/rtmobile bench -exp slo -json BENCH_9.json

# Non-test source lines (*.go and *.s) per package and in total, benchmark/
# excluded: the size a simplicity change states itself in.
loc:
	@find . -path ./benchmark -prune -o \( -name '*.go' -o -name '*.s' \) ! -name '*_test.go' -print \
		| xargs wc -l | awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); n[d] += $$1; t += $$1 } \
		END { for (d in n) printf "%7d %s\n", n[d], d; printf "%7d total\n", t }' | sort -k2

# Advisory audit, wired into no gate: each exported func or method declared
# in a non-test file outside benchmark/ whose name appears in no other
# non-test .go file (benchmark/ included). A type's methods used only in
# their own file are legitimate hits; a free function listed here is a
# deletion candidate.
unreached:
	@all=$$(find . -name '*.go' ! -name '*_test.go'); \
	for f in $$(find . -path ./benchmark -prune -o -name '*.go' ! -name '*_test.go' -print | sort); do \
		for n in $$(sed -nE 's/^func (\([^)]*\) )?([A-Z][A-Za-z0-9_]*).*/\2/p' $$f | sort -u); do \
			grep -lw "$$n" $$all | grep -qvx "$$f" || echo "$$f: $$n"; \
		done; \
	done

# Coverage gates: the observability primitives and the quantization
# package must each stay above their statement-coverage floor.
cover:
	$(GO) test -coverprofile=cover.out ./internal/obs
	@total=$$($(GO) tool cover -func=cover.out | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
	rm -f cover.out; \
	echo "internal/obs coverage: $$total% (floor $(OBS_COVER_FLOOR)%)"; \
	awk -v t="$$total" -v f="$(OBS_COVER_FLOOR)" 'BEGIN { exit !(t+0 >= f+0) }' || \
		{ echo "coverage below floor"; exit 1; }
	$(GO) test -coverprofile=cover.out ./internal/quant
	@total=$$($(GO) tool cover -func=cover.out | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
	rm -f cover.out; \
	echo "internal/quant coverage: $$total% (floor $(QUANT_COVER_FLOOR)%)"; \
	awk -v t="$$total" -v f="$(QUANT_COVER_FLOOR)" 'BEGIN { exit !(t+0 >= f+0) }' || \
		{ echo "coverage below floor"; exit 1; }
	RTMOBILE_METRICS=1 $(GO) test -coverprofile=cover.out ./internal/sched
	@total=$$($(GO) tool cover -func=cover.out | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
	rm -f cover.out; \
	echo "internal/sched coverage: $$total% (floor $(SCHED_COVER_FLOOR)%)"; \
	awk -v t="$$total" -v f="$(SCHED_COVER_FLOOR)" 'BEGIN { exit !(t+0 >= f+0) }' || \
		{ echo "coverage below floor"; exit 1; }
	RTMOBILE_METRICS=1 $(GO) test -coverprofile=cover.out ./internal/registry
	@total=$$($(GO) tool cover -func=cover.out | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
	rm -f cover.out; \
	echo "internal/registry coverage: $$total% (floor $(REGISTRY_COVER_FLOOR)%)"; \
	awk -v t="$$total" -v f="$(REGISTRY_COVER_FLOOR)" 'BEGIN { exit !(t+0 >= f+0) }' || \
		{ echo "coverage below floor"; exit 1; }
