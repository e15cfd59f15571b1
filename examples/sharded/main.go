// Sharded-master walkthrough: the same training job run with the master's
// data plane partitioned into M coordinate shards. First an in-process
// sharded run is compared bit-for-bit against its unsharded twin — sharding
// is a wall-clock knob, never a numerics knob — and the per-shard
// measurements in Result.Shards are printed. Then the job runs on the TCP
// runtime, where each worker still sends every reply on its one connection
// and the shards split the decode in the master process. Finally the
// M-shard job writes one checkpoint file and an unsharded job resumes from
// it, again bit-identical to an uninterrupted run: the checkpoint holds the
// full model, so it resumes at any shard count.
//
//	go run ./examples/sharded
package main

import (
	"fmt"
	"log"
	"os"

	"bcc"
)

const shards = 4

// spec is the common topology: m=8 data partitions over n=8 workers at
// load r=3, a p=2048 model (four default wire chunks — one per shard).
func spec(iters int) bcc.Spec {
	return bcc.Spec{
		Examples: 8, Workers: 8, Load: 3,
		DataPoints: 160, Dim: 2048,
		Scheme: bcc.SchemeBCC, Iterations: iters, Seed: 42,
	}
}

func main() {
	// --- 1. In-process: sharded vs unsharded, bit for bit. ---------------
	plain := spec(30)
	sharded := spec(30)
	sharded.MasterShards = shards

	plainRes, err := bcc.Train(plain)
	if err != nil {
		log.Fatal(err)
	}
	shardRes, err := bcc.Train(sharded)
	if err != nil {
		log.Fatal(err)
	}
	for i := range plainRes.FinalW {
		if plainRes.FinalW[i] != shardRes.FinalW[i] {
			log.Fatalf("coordinate %d differs: %v vs %v", i, plainRes.FinalW[i], shardRes.FinalW[i])
		}
	}
	fmt.Printf("sim: M=%d model identical to unsharded across all %d coordinates\n",
		shards, len(plainRes.FinalW))
	printShards("sim", shardRes.Shards)

	// --- 2. TCP: one connection per worker, sharded decode in-process. ---
	tcp := spec(30)
	tcp.MasterShards = shards
	tcp.Runtime = bcc.RuntimeTCP
	tcpRes, err := bcc.Train(tcp)
	if err != nil {
		log.Fatal(err)
	}
	for i := range plainRes.FinalW {
		if plainRes.FinalW[i] != tcpRes.FinalW[i] {
			log.Fatalf("tcp coordinate %d differs: %v vs %v", i, plainRes.FinalW[i], tcpRes.FinalW[i])
		}
	}
	fmt.Printf("\ntcp: sharded master reproduced the sim model exactly; "+
		"total measured wire in/out %d/%d bytes\n", tcpRes.TotalWireIn, tcpRes.TotalWireOut)
	printShards("tcp", tcpRes.Shards)

	// --- 3. Checkpoint at M=4, resume at M=1: one file, bit for bit. ----
	dir, err := os.MkdirTemp("", "bcc-sharded")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := dir + "/ckpt.bin"

	half, err := bcc.NewJob(specSharded(15))
	if err != nil {
		log.Fatal(err)
	}
	if _, err := half.Run(); err != nil {
		log.Fatal(err)
	}
	if err := half.Checkpoint(path, 15); err != nil {
		log.Fatal(err)
	}
	files, _ := os.ReadDir(dir)
	fmt.Printf("\ncheckpoint at M=%d: %d file(s) written:", shards, len(files))
	for _, f := range files {
		info, _ := f.Info()
		fmt.Printf("  %s (%dB)", f.Name(), info.Size())
	}
	fmt.Println()

	resumed, err := bcc.NewJob(spec(15)) // unsharded: M=1
	if err != nil {
		log.Fatal(err)
	}
	completed, err := resumed.RestoreCheckpoint(path)
	if err != nil {
		log.Fatal(err)
	}
	resRes, err := resumed.Run()
	if err != nil {
		log.Fatal(err)
	}
	for i := range shardRes.FinalW {
		if shardRes.FinalW[i] != resRes.FinalW[i] {
			log.Fatalf("resumed coordinate %d differs", i)
		}
	}
	fmt.Printf("resume at M=1: %d done + 15 more == uninterrupted 30 at M=%d, bit for bit\n", completed, shards)
}

func specSharded(iters int) bcc.Spec {
	s := spec(iters)
	s.MasterShards = shards
	return s
}

func printShards(label string, stats []bcc.ShardStats) {
	fmt.Printf("per-shard stats, %s:\n", label)
	for _, ss := range stats {
		fmt.Printf("  shard %d owns [%4d,%4d)  decode %6.2fms\n",
			ss.Shard, ss.Lo, ss.Hi, float64(ss.DecodeNs)/1e6)
	}
}
