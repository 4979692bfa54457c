package patterns

import (
	"testing"

	"partmb/internal/cluster"
	"partmb/internal/mpi"
	"partmb/internal/sim"
)

// TestDeadlockNamesTeamWorkers leaves a Halo3D rank's Multi-mode workers
// parked: every neighbour of rank 1 is rank 0, which never runs, so each
// worker waits for faces that never come. The expected text was recorded
// when every worker was spawned under a name formatted up front; names
// formatted only for the DeadlockError must read the same.
func TestDeadlockNamesTeamWorkers(t *testing.T) {
	s := sim.New()
	mcfg := mpi.DefaultConfig(2)
	configureMode(&mcfg, Multi, mpi.PartMPIPCL)
	w := mpi.NewWorld(s, mcfg)
	place := cluster.Place(mcfg.Machine, 8)
	r := &haloRank{
		mode: Multi, repeats: 2, comm: w.Comm(1), place: place,
		faces: numFaces, faceBytes: 64 << 10, parts: 4, borders: faceBorders(2), motif: "halo",
	}
	r.comm.SetPlacement(place)
	for range r.repeats {
		compute := make([]sim.Duration, 8)
		for i := range compute {
			compute[i] = sim.Microsecond
		}
		r.computeOf = append(r.computeOf, compute)
	}
	s.Spawn("halo/rank1", func(p *sim.Proc) {
		r.setup(p)
		r.run(p)
	})
	err := s.Run()
	const want = "sim: deadlock at t=74.1us with 9 blocked procs: halo/rank1(#1): barrier gen 0; " +
		"halo/rank1/worker0(#2): completion wait; halo/rank1/worker1(#3): completion wait; " +
		"halo/rank1/worker2(#4): completion wait; halo/rank1/worker3(#5): completion wait; " +
		"halo/rank1/worker4(#6): completion wait; halo/rank1/worker5(#7): completion wait; " +
		"halo/rank1/worker6(#8): completion wait; halo/rank1/worker7(#9): completion wait"
	if err == nil || err.Error() != want {
		t.Errorf("deadlock text\n got %v\nwant %s", err, want)
	}
}
