# Developer entry points. CI runs `make smoke`, `make sweep-smoke` and
# `make profile`. Performance claims go through `go run ./benchmark`.

# -ec so every recipe line must succeed; pipefail so a failing stage of a
# pipe fails its line.
SHELL := /bin/bash
.SHELLFLAGS := -o pipefail -ec

GO ?= go

.PHONY: check test vet profile smoke sweep-smoke clean

check: vet test

vet:
	$(GO) vet ./...

test:
	$(GO) build ./... && $(GO) test ./...

# profile captures CPU and allocation profiles of the machine-scale
# benchmarks, and of four real workloads at the end-to-end benchmark's
# scale from one cmd/experiments binary (aggr_sweep: fig6 at 16 nodes, the
# openPMD path; orig_scaling: fig2 to 30 nodes, the file-per-rank path;
# staged_drain: figburst to 50 nodes two cells at a time, the most live
# ranks; sched_queue: figsched then figfair at 3000 jobs, the scheduler's
# event loop; every allocation sampled), for pprof inspection:
#   go tool pprof kernel.test cpu.pprof
#   go tool pprof -alloc_space kernel.test mem.pprof
#   go tool pprof sched.test sched_cpu.pprof
#   go tool pprof -alloc_space sched.test sched_mem.pprof
#   go tool pprof experiments.bin fig6_cpu.pprof
#   go tool pprof -sample_index=alloc_objects experiments.bin fig6_mem.pprof
#   go tool pprof experiments.bin fig2_cpu.pprof
#   go tool pprof -sample_index=alloc_space experiments.bin fig2_mem.pprof
#   go tool pprof experiments.bin figburst_cpu.pprof
#   go tool pprof -sample_index=alloc_space experiments.bin figburst_mem.pprof
#   go tool pprof experiments.bin schedq_cpu.pprof
#   go tool pprof -sample_index=alloc_objects experiments.bin schedq_mem.pprof
# and writes the top 20 of each workload's allocated bytes as text, where
# an allocation hunt starts: fig6_alloc_top.txt, fig2_alloc_top.txt,
# figburst_alloc_top.txt, schedq_alloc_top.txt.
# An object count read off a -memprofile is a floor, not a total: pointer-
# free allocations under 16 bytes share a 16-byte block, and only the one
# that opens a block is sampled. Size an object-count claim against the
# benchmark's mallocs_M.
profile:
	$(GO) test -bench 'BenchmarkKernelScale$$' -benchtime=1x -run '^$$' \
		-cpuprofile cpu.pprof -memprofile mem.pprof -o kernel.test ./internal/sim
	$(GO) test -bench 'BenchmarkSchedScale$$' -benchtime=1x -run '^$$' \
		-cpuprofile sched_cpu.pprof -memprofile sched_mem.pprof -o sched.test ./internal/sched
	$(GO) build -o experiments.bin ./cmd/experiments
	./experiments.bin -cpuprofile fig6_cpu.pprof -memprofile fig6_mem.pprof -run fig6 -nodes 16 -diag-epochs 3
	./experiments.bin -cpuprofile fig2_cpu.pprof -memprofile fig2_mem.pprof -run fig2 -node-list 1,5,10,30 -diag-epochs 3
	./experiments.bin -cpuprofile figburst_cpu.pprof -memprofile figburst_mem.pprof -run figburst -node-list 5,10,25,50 -diag-epochs 3 -parallel 2
	./experiments.bin -cpuprofile schedq_cpu.pprof -memprofile schedq_mem.pprof -run figsched,figfair -sched-jobs 3000 -parallel 2
	$(GO) tool pprof -sample_index=alloc_space -top -nodecount=20 experiments.bin fig6_mem.pprof > fig6_alloc_top.txt
	$(GO) tool pprof -sample_index=alloc_space -top -nodecount=20 experiments.bin fig2_mem.pprof > fig2_alloc_top.txt
	$(GO) tool pprof -sample_index=alloc_space -top -nodecount=20 experiments.bin figburst_mem.pprof > figburst_alloc_top.txt
	$(GO) tool pprof -sample_index=alloc_space -top -nodecount=20 experiments.bin schedq_mem.pprof > schedq_alloc_top.txt

# smoke builds and runs every example with its interesting flag
# combinations, the two job CLIs that share cluster.System's launcher and
# the tool clones, so none can silently rot. cmd/bit1's output and its
# refusals are pinned by its own tests (go test ./cmd/bit1); here it runs
# in both modes, and -compressor none prints what no -compressor does.
# To cmd/experiments a zero scale or worker count, a node count below 1
# or an empty entry (-nodes or -node-list), a negative job count, draw
# count or MTBF, an artifact named without -run and the retired -optimal
# flag are usage errors, not another experiment; so is an argument to
# bpls, which reads no host file, and a stripe count of 0 to lfs. A
# typo'd -run name is refused before any artifact prints. darshan-parser
# says no to a missing file, an empty one and a directory. lfs setstripe
# prints the layout of -run lst1, the paper's Listing 1.
smoke:
	$(GO) build ./...
	$(GO) run ./cmd/bit1 -nodes 2 -ranks-per-node 8 -diag-epochs 2
	$(GO) run ./cmd/bit1 -nodes 2 -ranks-per-node 8 -diag-epochs 2 -mode original
	cmp <($(GO) run ./cmd/bit1 -nodes 2 -ranks-per-node 8 -diag-epochs 2) <($(GO) run ./cmd/bit1 -nodes 2 -ranks-per-node 8 -diag-epochs 2 -compressor none)
	! $(GO) run ./cmd/experiments -run fig3 -node-list 1 -ranks-per-node 0
	! $(GO) run ./cmd/experiments -run fig3 -node-list 1 -diag-epochs 0
	! $(GO) run ./cmd/experiments -run fig6 -nodes 0
	! $(GO) run ./cmd/experiments -run fig6 -nodes -1
	! $(GO) run ./cmd/experiments -run fig3 -node-list 0
	! $(GO) run ./cmd/experiments -run fig3 -node-list 30,-2
	! $(GO) run ./cmd/experiments -run figsched -sched-jobs -5
	! $(GO) run ./cmd/experiments -run fig3 -node-list 1,,2
	! $(GO) run ./cmd/experiments fig3
	! $(GO) run ./cmd/experiments -optimal -run campfail
	test -z "$$($(GO) run ./cmd/experiments -run lst1,nope 2>/dev/null)"
	! $(GO) run ./cmd/experiments -run campfail -campaign-runs -1
	! $(GO) run ./cmd/experiments -run campfail -campaign-mtbf -1
	! $(GO) run ./cmd/experiments -run fig3 -node-list 1 -ranks-per-node 8 -diag-epochs 1 -parallel 0
	$(GO) run ./cmd/ior -nodes 2 -n 16
	$(GO) run ./cmd/ior -nodes 2 -n 16 -F
	$(GO) run ./cmd/bpls
	! $(GO) run ./cmd/bpls x
	! $(GO) run ./cmd/darshan-parser nonexistent.darshan.gz
	! $(GO) run ./cmd/darshan-parser /dev/null
	! $(GO) run ./cmd/darshan-parser .
	cmp <($(GO) run ./cmd/lfs setstripe -c 8 -S 16M io_openPMD) <($(GO) run ./cmd/experiments -run lst1 | sed '1,2d;$$d')
	! $(GO) run ./cmd/lfs setstripe -c 0 -S 1M io
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/ionization
	$(GO) run ./examples/striping-tuning
	$(GO) run ./examples/checkpoint-restart
	$(GO) run ./examples/checkpoint-restart -burst
	$(GO) run ./examples/checkpoint-restart -burst -kill
	$(GO) run ./examples/checkpoint-restart -burst -auto-interval
	$(GO) run ./examples/multi-job
	$(GO) run ./examples/schedtrace
	$(GO) run ./examples/schedtrace -nodes 256 -jobs 1000
	$(GO) run ./examples/schedtrace -fair -preempt 8 -mtbf 1500

# sweep-smoke runs the sweep-native artifacts at tiny scale and writes
# their machine-readable JSON; CI archives the outputs. The campopt run
# doubles as the interval-recommendation validation at an accelerated
# MTBF.
sweep-smoke:
	$(GO) run ./cmd/experiments -parallel 4 -run figsizing,campfail
	$(GO) run ./cmd/experiments -parallel 4 -run campopt -campaign-mtbf 500
	$(GO) run ./cmd/experiments -json -parallel 4 -run figsizing > figsizing.json
	$(GO) run ./cmd/experiments -json -parallel 4 -campaign-runs 1500 -campaign-mtbf 500 -run campfail > campfail.json
	$(GO) run ./cmd/experiments -json -parallel 4 -run figinterval > figinterval.json
	$(GO) run ./cmd/experiments -parallel 4 -run figsched
	$(GO) run ./cmd/experiments -json -parallel 4 -run figsched > figsched.json
	$(GO) run ./cmd/experiments -parallel 4 -run figfair
	$(GO) run ./cmd/experiments -json -parallel 4 -run figfair > figfair.json
	$(GO) run ./cmd/experiments -parallel 4 -run figworkload
	$(GO) run ./cmd/experiments -json -parallel 4 -run figworkload > figworkload.json

clean:
	rm -f cpu.pprof mem.pprof kernel.test sched_cpu.pprof sched_mem.pprof sched.test
	rm -f fig6_cpu.pprof fig6_mem.pprof fig2_cpu.pprof fig2_mem.pprof experiments.bin
	rm -f figburst_cpu.pprof figburst_mem.pprof schedq_cpu.pprof schedq_mem.pprof
	rm -f fig6_alloc_top.txt fig2_alloc_top.txt figburst_alloc_top.txt schedq_alloc_top.txt
	rm -f figsizing.json campfail.json figinterval.json figsched.json figfair.json figworkload.json
