# Developer entry points. CI runs `make profile`.
# Performance claims go through `go run ./benchmark`.

# -ec so every recipe line must succeed; pipefail so a failing stage of a
# pipe fails its line.
SHELL := /bin/bash
.SHELLFLAGS := -o pipefail -ec

GO ?= go

.PHONY: check test vet profile clean

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

clean:
	rm -f cpu.pprof mem.pprof kernel.test sched_cpu.pprof sched_mem.pprof sched.test
	rm -f fig6_cpu.pprof fig6_mem.pprof fig2_cpu.pprof fig2_mem.pprof experiments.bin
	rm -f figburst_cpu.pprof figburst_mem.pprof schedq_cpu.pprof schedq_mem.pprof
	rm -f fig6_alloc_top.txt fig2_alloc_top.txt figburst_alloc_top.txt schedq_alloc_top.txt
