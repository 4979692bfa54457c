package sim

import (
	"fmt"
	"testing"
)

// recordingThreads logs each member's start and counts ThreadName calls;
// member t sleeps t+1 ns, and member park waits on a completion that never
// fires.
type recordingThreads struct {
	log   []string
	names int
	park  int
	never Completion
}

func (b *recordingThreads) Thread(tp *Proc, t int) {
	b.log = append(b.log, fmt.Sprintf("%d#%d@%d", t, tp.id, tp.Now()))
	if t == b.park {
		b.never.Wait(tp)
	}
	tp.Sleep(Duration(t + 1))
}

func (b *recordingThreads) ThreadName(t int) string {
	b.names++
	return fmt.Sprintf("member%d", t)
}

// Fork starts its members in index order with consecutive ids at the
// current time, ForkJoin returns once the slowest has, and no member's name
// is formatted on the way.
func TestForkStartsInIndexOrderAndJoins(t *testing.T) {
	s := New()
	body := &recordingThreads{park: -1}
	var joined Time
	s.Spawn("main", func(p *Proc) {
		p.Sleep(5)
		p.ForkJoin(body, 4)
		joined = p.Now()
		s.Fork(body, 2)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := "[0#2@5 1#3@5 2#4@5 3#5@5 0#6@9 1#7@9]"
	if got := fmt.Sprint(body.log); got != want {
		t.Errorf("member starts %s, want %s", got, want)
	}
	if joined != 9 {
		t.Errorf("ForkJoin returned at %d, want 9 (slowest member: 4 ns from 5)", joined)
	}
	if body.names != 0 {
		t.Errorf("a clean run formatted %d names, want 0", body.names)
	}
}

// A parked fork member is named by its body, and only when the
// DeadlockError is built; the joining proc waits as a WaitGroup waiter.
func TestForkMemberNamedOnDeadlock(t *testing.T) {
	s := New()
	body := &recordingThreads{park: 1}
	s.Spawn("main", func(p *Proc) { p.ForkJoin(body, 3) })
	err := s.Run()
	const want = "sim: deadlock at t=3ns with 2 blocked procs: main(#1): waitgroup wait; member1(#3): completion wait"
	if err == nil || err.Error() != want {
		t.Fatalf("got %v, want %s", err, want)
	}
	if body.names != 1 {
		t.Errorf("formatted %d names, want 1", body.names)
	}
}

// Name formats a fork member's name on demand; a spawned proc keeps its own.
func TestProcName(t *testing.T) {
	s := New()
	body := &recordingThreads{park: -1}
	var names []string
	s.Spawn("main", func(p *Proc) {
		names = append(names, p.label())
		s.Fork(namingThreads{body, &names}, 2)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(names); got != "[main member0 member1]" {
		t.Errorf("names %s, want [main member0 member1]", got)
	}
}

// namingThreads records each member's Name from inside the member.
type namingThreads struct {
	*recordingThreads
	names *[]string
}

func (b namingThreads) Thread(tp *Proc, t int) { *b.names = append(*b.names, tp.label()) }
