// Package partmb is a micro-benchmark suite for MPI Partitioned
// point-to-point communication, reproducing "Micro-Benchmarking MPI
// Partitioned Point-to-Point Communication" (Temuçin, Grant, Afsahi;
// ICPP 2022) in pure Go on a deterministic discrete-event simulation of an
// HPC cluster.
//
// The root package is documentation only; the implementation lives under
// internal/:
//
//   - internal/sim — the discrete-event simulation kernel (virtual time,
//     cooperative actors, deterministic ordering);
//   - internal/cluster, internal/netsim, internal/memsim — the hardware
//     models (Niagara-like nodes, EDR InfiniBand-like fabric, cache states);
//   - internal/mpi — the message-passing runtime: matching, eager and
//     rendezvous protocols, persistent and partitioned operations, threading
//     modes, collectives;
//   - internal/core — the paper's four metrics (overhead, perceived
//     bandwidth, application availability, early-bird communication) and the
//     two-process benchmark harness;
//   - internal/patterns — the Sweep3D, Halo3D and Halo2D motifs;
//   - internal/classic — the OSU/SMB-style classic benchmarks plus
//     partitioned variants;
//   - internal/omp — OpenMP-like fork/join helpers over the kernel;
//   - internal/snap, internal/prof — the SNAP proxy projection and the
//     mpiP-style profiler;
//   - internal/figures — regeneration of every figure in the paper's
//     evaluation.
//
// The verbs of cmd/partmb (run, scaling, patterns, snap, figures, advise,
// extensions, classic, modelcheck, serve, work) expose all of
// this on the command line, and examples/ holds runnable programs written
// against the library API. bench_test.go at this level hosts one
// testing.B benchmark per paper figure plus ablation benchmarks for the
// design choices called out in DESIGN.md.
package partmb
