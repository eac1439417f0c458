// Benchmark harness: one testing.B benchmark per evaluation artifact
// (experiments E2..E16 from DESIGN.md; E1 is the static configuration
// table).  Each benchmark iteration is one complete verified simulation;
// the evaluation metric (IPC, i.e. simulated instructions per simulated
// cycle) is reported alongside Go's wall-clock numbers via ReportMetric.
//
// Regenerate the full evaluation with:
//
//	go test -bench=. -benchmem
//	go run ./cmd/dsre-bench        # the same experiments as tables
package repro_test

import (
	"fmt"
	"testing"

	"repro"
)

// benchSize keeps one benchmark iteration well under a second.
func benchSize(kernel string) int {
	switch kernel {
	case "matmul":
		return 16
	case "sort":
		return 64
	case "treewalk":
		return 512
	default:
		return 1024
	}
}

// conflictKernels are the workloads with in-window store→load dependences,
// where speculation policy and recovery actually differentiate.
var conflictKernels = []string{"histogram", "bank", "hashmap", "stencil", "cursor"}

func runOnce(b *testing.B, cfg repro.Config) *repro.Result {
	b.Helper()
	r, err := repro.Run(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return r
}

// BenchmarkE2SpeedupPerScheme regenerates the main figure: IPC of every
// scheme on every kernel.
func BenchmarkE2SpeedupPerScheme(b *testing.B) {
	for _, k := range repro.Workloads() {
		for _, s := range repro.Schemes() {
			b.Run(k+"/"+s, func(b *testing.B) {
				var r *repro.Result
				for i := 0; i < b.N; i++ {
					r = runOnce(b, repro.Config{Workload: k, Scheme: s, Size: benchSize(k)})
				}
				b.ReportMetric(r.IPC, "IPC")
				b.ReportMetric(float64(r.Violations), "violations")
			})
		}
	}
}

// BenchmarkE3OracleFraction reports DSRE's fraction of oracle performance
// per kernel (the abstract's 82% claim).
func BenchmarkE3OracleFraction(b *testing.B) {
	for _, k := range conflictKernels {
		b.Run(k, func(b *testing.B) {
			var frac float64
			for i := 0; i < b.N; i++ {
				d := runOnce(b, repro.Config{Workload: k, Scheme: "dsre", Size: benchSize(k)})
				o := runOnce(b, repro.Config{Workload: k, Scheme: "oracle", Size: benchSize(k)})
				frac = d.IPC / o.IPC
			}
			b.ReportMetric(frac, "of-oracle")
		})
	}
}

// BenchmarkE4WindowScaling regenerates the window-size scaling figure.
func BenchmarkE4WindowScaling(b *testing.B) {
	for _, k := range []string{"histogram", "stencil", "bank"} {
		for _, s := range []string{"storeset+flush", "dsre"} {
			for _, frames := range []int{2, 8, 32} {
				b.Run(fmt.Sprintf("%s/%s/frames=%d", k, s, frames), func(b *testing.B) {
					var r *repro.Result
					for i := 0; i < b.N; i++ {
						r = runOnce(b, repro.Config{Workload: k, Scheme: s, Size: benchSize(k), Frames: frames})
					}
					b.ReportMetric(r.IPC, "IPC")
				})
			}
		}
	}
}

// BenchmarkE5Misspec reports the re-execution and squash volumes behind the
// mis-speculation statistics table.
func BenchmarkE5Misspec(b *testing.B) {
	for _, k := range conflictKernels {
		for _, s := range []string{"aggressive+flush", "dsre"} {
			b.Run(k+"/"+s, func(b *testing.B) {
				var r *repro.Result
				for i := 0; i < b.N; i++ {
					r = runOnce(b, repro.Config{Workload: k, Scheme: s, Size: benchSize(k)})
				}
				b.ReportMetric(float64(r.Sim.SquashedExecs), "squashed-execs")
				b.ReportMetric(float64(r.Reexecs), "re-execs")
			})
		}
	}
}

// BenchmarkE6CommitWave regenerates the commit-wave cost ablation.
func BenchmarkE6CommitWave(b *testing.B) {
	for _, k := range conflictKernels {
		for _, free := range []bool{false, true} {
			name := k + "/charged"
			if free {
				name = k + "/free"
			}
			b.Run(name, func(b *testing.B) {
				var r *repro.Result
				for i := 0; i < b.N; i++ {
					r = runOnce(b, repro.Config{Workload: k, Scheme: "dsre", Size: benchSize(k), CommitTokensFree: free})
				}
				b.ReportMetric(r.IPC, "IPC")
			})
		}
	}
}

// BenchmarkE7Suppression regenerates the identical-value suppression
// ablation.
func BenchmarkE7Suppression(b *testing.B) {
	for _, k := range []string{"stencil", "histogram", "cursor"} {
		for _, off := range []bool{false, true} {
			name := k + "/suppress"
			if off {
				name = k + "/no-suppress"
			}
			b.Run(name, func(b *testing.B) {
				var r *repro.Result
				for i := 0; i < b.N; i++ {
					r = runOnce(b, repro.Config{Workload: k, Scheme: "dsre", Size: benchSize(k), NoSuppressIdentical: off})
				}
				b.ReportMetric(r.IPC, "IPC")
				b.ReportMetric(float64(r.Reexecs), "re-execs")
			})
		}
	}
}

// BenchmarkE8WaveSizes reports wave-size characterisation.
func BenchmarkE8WaveSizes(b *testing.B) {
	for _, k := range conflictKernels {
		b.Run(k, func(b *testing.B) {
			var r *repro.Result
			for i := 0; i < b.N; i++ {
				r = runOnce(b, repro.Config{Workload: k, Scheme: "dsre", Size: benchSize(k)})
			}
			h := r.Sim.WaveSizeHist
			b.ReportMetric(float64(r.Waves), "waves")
			b.ReportMetric(h.Mean(), "mean-wave-size")
		})
	}
}

// BenchmarkE9HopLatency regenerates the network-latency sensitivity study.
func BenchmarkE9HopLatency(b *testing.B) {
	for _, k := range []string{"histogram", "vecsum"} {
		for _, s := range []string{"storeset+flush", "dsre"} {
			for _, hop := range []int{1, 2, 4} {
				b.Run(fmt.Sprintf("%s/%s/hop=%d", k, s, hop), func(b *testing.B) {
					var r *repro.Result
					for i := 0; i < b.N; i++ {
						r = runOnce(b, repro.Config{Workload: k, Scheme: s, Size: benchSize(k), HopLatency: hop})
					}
					b.ReportMetric(r.IPC, "IPC")
				})
			}
		}
	}
}

// BenchmarkE10StoreSetSize regenerates the predictor capacity study.
func BenchmarkE10StoreSetSize(b *testing.B) {
	for _, k := range []string{"histogram", "hashmap", "stencil"} {
		for _, n := range []int{256, 4096, 16384} {
			b.Run(fmt.Sprintf("%s/ssit=%d", k, n), func(b *testing.B) {
				var r *repro.Result
				for i := 0; i < b.N; i++ {
					r = runOnce(b, repro.Config{Workload: k, Scheme: "storeset+dsre", Size: benchSize(k), StoreSetSize: n})
				}
				b.ReportMetric(r.IPC, "IPC")
			})
		}
	}
}

// BenchmarkE11BlockPredictors regenerates the next-block predictor study.
func BenchmarkE11BlockPredictors(b *testing.B) {
	for _, k := range []string{"treewalk", "spmv", "matmul"} {
		for _, bp := range []string{"last", "twolevel", "perfect"} {
			b.Run(k+"/"+bp, func(b *testing.B) {
				var r *repro.Result
				for i := 0; i < b.N; i++ {
					r = runOnce(b, repro.Config{Workload: k, Scheme: "dsre", Size: benchSize(k), BlockPredictor: bp})
				}
				b.ReportMetric(r.IPC, "IPC")
			})
		}
	}
}

// BenchmarkE12WorkBreakdown regenerates the speculative-work economy study.
func BenchmarkE12WorkBreakdown(b *testing.B) {
	for _, k := range conflictKernels {
		for _, s := range []string{"aggressive+flush", "dsre"} {
			b.Run(k+"/"+s, func(b *testing.B) {
				var r *repro.Result
				for i := 0; i < b.N; i++ {
					r = runOnce(b, repro.Config{Workload: k, Scheme: s, Size: benchSize(k)})
				}
				useful := float64(r.Sim.CommittedExecs)
				total := float64(r.Sim.Executed)
				b.ReportMetric(100*(total-useful)/total, "overhead-%")
			})
		}
	}
}

// BenchmarkE13Placement regenerates the instruction-placement study.
func BenchmarkE13Placement(b *testing.B) {
	for _, k := range []string{"vecsum", "histogram", "matmul"} {
		for _, pl := range []string{"roundrobin", "chain"} {
			b.Run(k+"/"+pl, func(b *testing.B) {
				var r *repro.Result
				for i := 0; i < b.N; i++ {
					r = runOnce(b, repro.Config{Workload: k, Scheme: "dsre", Size: benchSize(k), Placement: pl})
				}
				b.ReportMetric(r.IPC, "IPC")
				b.ReportMetric(float64(r.Sim.Net.Hops), "hops")
			})
		}
	}
}

// BenchmarkE14DTileBanks regenerates the D-tile port study.
func BenchmarkE14DTileBanks(b *testing.B) {
	for _, k := range []string{"histogram", "queue"} {
		for _, banks := range []int{1, 4} {
			b.Run(fmt.Sprintf("%s/banks=%d", k, banks), func(b *testing.B) {
				var r *repro.Result
				for i := 0; i < b.N; i++ {
					r = runOnce(b, repro.Config{Workload: k, Scheme: "dsre", Size: benchSize(k), DTileBanks: banks})
				}
				b.ReportMetric(r.IPC, "IPC")
			})
		}
	}
}

// BenchmarkE15LSQCapacity regenerates the LSQ-sizing study.
func BenchmarkE15LSQCapacity(b *testing.B) {
	for _, k := range []string{"histogram", "queue"} {
		for _, cap := range []int{32, 128} {
			b.Run(fmt.Sprintf("%s/lsq=%d", k, cap), func(b *testing.B) {
				var r *repro.Result
				for i := 0; i < b.N; i++ {
					r = runOnce(b, repro.Config{Workload: k, Scheme: "dsre", Size: benchSize(k), LSQCapacity: cap})
				}
				b.ReportMetric(r.IPC, "IPC")
			})
		}
	}
}

// BenchmarkE16ValuePrediction regenerates the value-prediction study.
func BenchmarkE16ValuePrediction(b *testing.B) {
	for _, k := range []string{"queue", "cursor"} {
		for _, vp := range []bool{false, true} {
			name := k + "/vp=off"
			if vp {
				name = k + "/vp=on"
			}
			b.Run(name, func(b *testing.B) {
				var r *repro.Result
				for i := 0; i < b.N; i++ {
					r = runOnce(b, repro.Config{Workload: k, Scheme: "conservative+dsre", Size: benchSize(k), ValuePredict: vp})
				}
				b.ReportMetric(r.IPC, "IPC")
			})
		}
	}
}

// BenchmarkPrepare times the golden pre-pass, repro.Prepare: building a
// workload and running the emulator with the oracle and the block trace
// on.  "recovery" prepares the five conflict kernels at their default
// sizes, one op per five points; "sweep-size" prepares one kernel at the
// size a sweep grid uses.
func BenchmarkPrepare(b *testing.B) {
	prepare := func(b *testing.B, kernel string, size int) {
		b.Helper()
		if _, err := repro.Prepare(kernel, size, 0, 1); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("recovery", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, k := range conflictKernels {
				prepare(b, k, 0)
			}
		}
	})
	b.Run("sweep-size", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			prepare(b, "stencil", 64)
		}
	})
}
