// Command bcccluster runs a REAL multi-process BCC cluster over TCP: one
// master process and n worker processes that connect to it. Master and
// workers deterministically reconstruct the same dataset and placement from
// the shared seed, so only models and gradients cross the wire — exactly
// like the paper's EC2 deployment, where data is loaded onto the workers
// before the iterations start.
//
// Demo on one machine:
//
//	bcccluster master -addr 127.0.0.1:9777 -m 12 -n 4 -r 3 -iters 20 &
//	for i in 0 1 2 3; do bcccluster worker -addr 127.0.0.1:9777 -index $i & done
//	wait
//
// All topology flags (-m -n -r -scheme -seed ...) must match between master
// and workers.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strings"
	"time"

	"bcc/internal/cluster"
	"bcc/internal/core"
	"bcc/internal/faults"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	role := os.Args[1]
	fs := flag.NewFlagSet(role, flag.ExitOnError)
	var (
		addr      = fs.String("addr", "127.0.0.1:9777", "master listen/dial address")
		scheme    = fs.String("scheme", "bcc", "gradient-coding scheme")
		m         = fs.Int("m", 12, "example units")
		n         = fs.Int("n", 4, "workers")
		r         = fs.Int("r", 3, "computational load")
		iters     = fs.Int("iters", 20, "gradient iterations")
		points    = fs.Int("points", 10, "data points per unit")
		dim       = fs.Int("dim", 100, "feature dimension")
		seed      = fs.Uint64("seed", 1, "shared seed (must match across processes)")
		index     = fs.Int("index", 0, "worker index (worker role only)")
		wait      = fs.Duration("timeout", 60*time.Second, "per-iteration / accept timeout")
		codec     = fs.String("codec", "raw64", "payload codec: raw64|f32|topk (must match across processes)")
		topk      = fs.Int("topk", 0, "coordinates kept per reply vector with -codec topk (0 = dim/16)")
		chunk     = fs.Int("chunk", 0, "wire framing chunk size in elements (0 = default; must match across processes)")
		pipe      = fs.Bool("pipelined", false, "pipelined iterations: cancel stale in-flight work on a fresher query (must match across processes)")
		drop      = fs.Float64("drop", 0, "master-side probability in [0,1) of losing each worker transmission")
		dropSeed  = fs.Uint64("drop-seed", 0, "seed for the -drop fault pattern (master role only)")
		faultsN   = fs.String("faults", "", "named fault scenario: "+strings.Join(faults.Names(), "|")+" (must match across processes)")
		faultSd   = fs.Uint64("fault-seed", 0, "seed for the -faults scenario (0 = derive from -seed; must match across processes)")
		parallel  = fs.Int("parallel", 0, "goroutines per worker for gradient computation (0/1 = serial)")
		decodePar = fs.Int("decode-parallel", 0, "master: goroutines for the decode combination (0/1 = serial; bit-identical results)")
		shards    = fs.Int("master-shards", 0, "master: coordinate shards that decode and update in parallel in the master process (0/1 = unsharded)")
		adapt     = fs.Bool("adapt", false, "master: with -scheme nested, retune the redundancy level each iteration with the built-in straggler-tracking controller")
		adaptWin  = fs.Int("adapt-window", 0, "master: with -adapt, consecutive over-provisioned iterations before stepping the level down (0 = default 3)")
		progress  = fs.Bool("progress", false, "master: print a live per-iteration progress line")
	)
	if err := fs.Parse(os.Args[2:]); err != nil {
		fail(err)
	}

	// Both roles rebuild the identical job — data, placement and fault
	// schedule — from the shared seeds, and take their engine config and
	// worker env from it exactly as the service daemon does.
	job, err := core.NewJob(core.Spec{
		DataPoints:         *m * *points,
		Dim:                *dim,
		Examples:           *m,
		Workers:            *n,
		Load:               *r,
		Scheme:             core.Scheme(*scheme),
		Iterations:         *iters,
		Seed:               *seed,
		FaultScenario:      *faultsN,
		FaultSeed:          *faultSd,
		Payload:            core.Payload(*codec),
		TopK:               *topk,
		WireChunk:          *chunk,
		Pipelined:          *pipe,
		DropProb:           *drop,
		DropSeed:           *dropSeed,
		ComputeParallelism: *parallel,
		DecodeParallelism:  *decodePar,
		MasterShards:       *shards,
		AdaptRedundancy:    *adapt,
		AdaptWindow:        *adaptWin,
		TimeScale:          1,
	})
	if err != nil {
		fail(err)
	}

	switch role {
	case "master":
		ln, err := net.Listen("tcp", *addr)
		if err != nil {
			fail(err)
		}
		fmt.Printf("master: listening on %s, waiting for %d workers\n", *addr, *n)
		fab, err := cluster.ServeMaster(ln, *n, *n, *wait, nil, job.Comm(), job.Model.Dim())
		if err != nil {
			fail(err)
		}
		defer fab.Close()
		fmt.Println("master: all workers connected, training")
		cfg := job.EngineConfig()
		if *progress {
			cfg.Observer = cluster.ObserverFuncs{Iteration: func(st cluster.IterStats) {
				if st.Level > 0 {
					fmt.Printf("master: iter %4d  K %-4d L %-3d |grad| %.4e\n", st.Iter, st.WorkersHeard, st.Level, st.GradNorm)
					return
				}
				fmt.Printf("master: iter %4d  K %-4d |grad| %.4e\n", st.Iter, st.WorkersHeard, st.GradNorm)
			}}
		}
		// Ctrl-C cancels the run and reports the iterations that finished.
		ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt)
		defer stopSignals()
		res, err := cluster.RunWithFabricContext(ctx, cfg, fab, cluster.LiveOptions{Timeout: *wait, TimeScale: 1})
		// Drain before the deferred Close: wait (bounded) for every worker to
		// observe the shutdown broadcast and close its side, so an interrupted
		// master ends worker processes with a clean close instead of a
		// connection reset mid-reply.
		if !cluster.DrainFabric(fab, 2*time.Second) {
			fmt.Fprintln(os.Stderr, "master: drain timed out; some workers may see a reset")
		}
		if err != nil {
			if res == nil || !errors.Is(err, context.Canceled) {
				fail(err)
			}
			fmt.Printf("master: interrupted after %d iterations\n", len(res.Iters))
		}
		fmt.Printf("master: done; avg recovery threshold %.2f, payload bytes %d, wire bytes in/out %d/%d, accuracy %.4f\n",
			res.AvgWorkersHeard, res.TotalBytes, res.TotalWireIn, res.TotalWireOut, job.Accuracy(res.FinalW))
		for _, ss := range res.Shards {
			fmt.Printf("master: shard %d [%d,%d) decode=%.3fms over %d iterations\n",
				ss.Shard, ss.Lo, ss.Hi, float64(ss.DecodeNs)/1e6, ss.Iters)
		}
	case "worker":
		if *index < 0 || *index >= *n {
			fail(fmt.Errorf("worker index %d out of range [0,%d)", *index, *n))
		}
		fmt.Printf("worker %d: dialing %s\n", *index, *addr)
		if err := cluster.DialAndServeWorker(*addr, job.WorkerEnv(*index)); err != nil {
			fail(err)
		}
		fmt.Printf("worker %d: shutdown\n", *index)
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: bcccluster master|worker [flags]")
	os.Exit(2)
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "bcccluster: %v\n", err)
	os.Exit(1)
}
