package session

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/vclock"
)

func TestRoleString(t *testing.T) {
	if RoleTeacher.String() != "teacher" || RoleStudent.String() != "student" {
		t.Fatal("role names wrong")
	}
	if got := Role(9).String(); got != "role(9)" {
		t.Fatalf("unknown role = %q", got)
	}
}

func TestFloorImmediateGrant(t *testing.T) {
	f := NewFloor(nil)
	granted, err := f.Request("alice")
	if err != nil || !granted {
		t.Fatalf("Request = %v,%v; want true,nil", granted, err)
	}
	if f.Holder() != "alice" {
		t.Fatalf("holder = %q", f.Holder())
	}
}

func TestFloorFIFOQueue(t *testing.T) {
	f := NewFloor(nil)
	if _, err := f.Request("alice"); err != nil {
		t.Fatal(err)
	}
	for _, u := range []string{"bob", "carol", "dave"} {
		granted, err := f.Request(u)
		if err != nil || granted {
			t.Fatalf("Request(%s) = %v,%v; want queued", u, granted, err)
		}
	}
	if f.QueueLength() != 3 {
		t.Fatalf("queue = %d", f.QueueLength())
	}
	order := []string{"bob", "carol", "dave"}
	for _, want := range order {
		if err := f.Release(f.Holder()); err != nil {
			t.Fatal(err)
		}
		if f.Holder() != want {
			t.Fatalf("holder = %q, want %q (FIFO)", f.Holder(), want)
		}
	}
}

// TestFloorRotatesThroughClass is the E10 floor-control run: a class of
// n students all ask for the floor at once and each holds it for 2 s on
// a virtual clock. Grants follow request order, the last student waits
// for everyone before them, and the trace matches the Petri-net model.
func TestFloorRotatesThroughClass(t *testing.T) {
	for _, n := range []int{2, 5, 32} {
		clk := vclock.NewVirtual()
		f := NewFloor(clk)
		order := make([]string, n)
		for i := range order {
			order[i] = fmt.Sprintf("student%02d", i)
			if _, err := f.Request(order[i]); err != nil {
				t.Fatal(err)
			}
		}
		for i, want := range order {
			if got := f.Holder(); got != want {
				t.Fatalf("n=%d: grant %d went to %q, want %q (FIFO)", n, i, got, want)
			}
			clk.Advance(2 * time.Second)
			if err := f.Release(want); err != nil {
				t.Fatal(err)
			}
		}
		if err := f.VerifyAgainstModel(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		st := f.Stats()
		if st.Grants != n {
			t.Errorf("n=%d: %d grants", n, st.Grants)
		}
		if want := time.Duration(n-1) * 2 * time.Second; st.MaxWait != want {
			t.Errorf("n=%d: max wait %v, want %v", n, st.MaxWait, want)
		}
	}
}

func TestFloorDoubleRequestRejected(t *testing.T) {
	f := NewFloor(nil)
	if _, err := f.Request("alice"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Request("alice"); !errors.Is(err, ErrAlreadyHeld) {
		t.Fatalf("holder re-request = %v", err)
	}
	if _, err := f.Request("bob"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Request("bob"); !errors.Is(err, ErrAlreadyHeld) {
		t.Fatalf("queued re-request = %v", err)
	}
	if _, err := f.Request(""); err == nil {
		t.Fatal("empty user accepted")
	}
}

func TestFloorReleaseByNonHolder(t *testing.T) {
	f := NewFloor(nil)
	if _, err := f.Request("alice"); err != nil {
		t.Fatal(err)
	}
	if err := f.Release("bob"); !errors.Is(err, ErrNotHolder) {
		t.Fatalf("release by non-holder = %v", err)
	}
}

func TestFloorRevoke(t *testing.T) {
	f := NewFloor(nil)
	if _, err := f.Request("alice"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Request("bob"); err != nil {
		t.Fatal(err)
	}
	was, err := f.Revoke()
	if err != nil || was != "alice" {
		t.Fatalf("Revoke = %q,%v", was, err)
	}
	if f.Holder() != "bob" {
		t.Fatalf("holder after revoke = %q", f.Holder())
	}
	st := f.Stats()
	if st.Revocations != 1 {
		t.Fatalf("revocations = %d", st.Revocations)
	}
	// Revoke with free floor fails.
	if err := f.Release("bob"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Revoke(); !errors.Is(err, ErrNotHolder) {
		t.Fatalf("revoke free floor = %v", err)
	}
}

func TestFloorCancel(t *testing.T) {
	f := NewFloor(nil)
	if _, err := f.Request("alice"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Request("bob"); err != nil {
		t.Fatal(err)
	}
	if err := f.Cancel("bob"); err != nil {
		t.Fatal(err)
	}
	if err := f.Release("alice"); err != nil {
		t.Fatal(err)
	}
	if f.Holder() != "" {
		t.Fatalf("holder = %q after cancelled queue", f.Holder())
	}
	if err := f.Cancel("ghost"); err == nil {
		t.Fatal("cancel of unqueued user accepted")
	}
}

func TestFloorWaitStatsOnVirtualClock(t *testing.T) {
	clk := vclock.NewVirtual()
	f := NewFloor(clk)
	if _, err := f.Request("alice"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Request("bob"); err != nil {
		t.Fatal(err)
	}
	clk.Advance(7 * time.Second)
	if err := f.Release("alice"); err != nil {
		t.Fatal(err)
	}
	st := f.Stats()
	if st.MaxWait != 7*time.Second {
		t.Fatalf("MaxWait = %v, want 7s", st.MaxWait)
	}
	if st.Grants != 2 || st.Requests != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestFloorVerifyAgainstModel(t *testing.T) {
	f := NewFloor(nil)
	users := []string{"alice", "bob", "carol"}
	// A busy session: everyone requests, floor passes around twice.
	for _, u := range users {
		if _, err := f.Request(u); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		for range users {
			holder := f.Holder()
			if err := f.Release(holder); err != nil {
				t.Fatal(err)
			}
			if f.Holder() == "" && f.QueueLength() == 0 {
				if _, err := f.Request(holder); err != nil {
					t.Fatal(err)
				}
			} else if _, err := f.Request(holder); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := f.VerifyAgainstModel(); err != nil {
		t.Fatalf("runtime log deviates from Petri-net model: %v", err)
	}
}

func TestFloorConcurrentSafety(t *testing.T) {
	f := NewFloor(nil)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			user := fmt.Sprintf("u%d", id)
			for j := 0; j < 50; j++ {
				granted, err := f.Request(user)
				if err != nil {
					continue
				}
				if !granted {
					// Wait until we become the holder or give up.
					for k := 0; k < 1000 && f.Holder() != user; k++ {
						time.Sleep(10 * time.Microsecond)
					}
					if f.Holder() != user {
						if err := f.Cancel(user); err != nil {
							// Granted between the check and the cancel.
							_ = f.Release(user)
						}
						continue
					}
				}
				_ = f.Release(user)
			}
		}(i)
	}
	wg.Wait()
	// The log must still be a legal model trace.
	if err := f.VerifyAgainstModel(); err != nil {
		t.Fatalf("concurrent log deviates from model: %v", err)
	}
}

func TestClassroomJoinLeave(t *testing.T) {
	c := NewClassroom("dist-sys", nil)
	teacher, err := c.Join("prof", RoleTeacher)
	if err != nil {
		t.Fatal(err)
	}
	if teacher.Role != RoleTeacher {
		t.Fatal("role lost")
	}
	if _, err := c.Join("prof", RoleTeacher); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("duplicate join = %v", err)
	}
	if _, err := c.Join("", RoleStudent); err == nil {
		t.Fatal("empty id accepted")
	}
	if _, err := c.Join("s1", RoleStudent); err != nil {
		t.Fatal(err)
	}
	if c.AttendeeCount() != 2 {
		t.Fatalf("count = %d", c.AttendeeCount())
	}
	if err := c.Leave("s1"); err != nil {
		t.Fatal(err)
	}
	if err := c.Leave("s1"); !errors.Is(err, ErrNotAttending) {
		t.Fatalf("double leave = %v", err)
	}
}

func TestClassroomAnnotationBroadcast(t *testing.T) {
	c := NewClassroom("class", nil)
	if _, err := c.Join("prof", RoleTeacher); err != nil {
		t.Fatal(err)
	}
	s1, err := c.Join("s1", RoleStudent)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := c.Join("s2", RoleStudent)
	if err != nil {
		t.Fatal(err)
	}

	// Teacher annotates without the floor.
	if err := c.Annotate("prof", "welcome"); err != nil {
		t.Fatal(err)
	}
	for _, a := range []*Attendee{s1, s2} {
		select {
		case ann := <-a.Annotations:
			if ann.Author != "prof" || ann.Text != "welcome" {
				t.Fatalf("annotation = %+v", ann)
			}
		default:
			t.Fatal("annotation not delivered")
		}
	}

	// Student needs the floor.
	if err := c.Annotate("s1", "question"); !errors.Is(err, ErrNotHolder) {
		t.Fatalf("floorless student annotate = %v", err)
	}
	if _, err := c.Floor.Request("s1"); err != nil {
		t.Fatal(err)
	}
	if err := c.Annotate("s1", "question"); err != nil {
		t.Fatal(err)
	}
	if got := c.History(); len(got) != 2 || got[1].Author != "s1" {
		t.Fatalf("history = %+v", got)
	}

	// Non-attendee cannot annotate.
	if err := c.Annotate("ghost", "boo"); !errors.Is(err, ErrNotAttending) {
		t.Fatalf("ghost annotate = %v", err)
	}
}

func TestClassroomLeaveReleasesFloor(t *testing.T) {
	c := NewClassroom("class", nil)
	if _, err := c.Join("s1", RoleStudent); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Join("s2", RoleStudent); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Floor.Request("s1"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Floor.Request("s2"); err != nil {
		t.Fatal(err)
	}
	if err := c.Leave("s1"); err != nil {
		t.Fatal(err)
	}
	if c.Floor.Holder() != "s2" {
		t.Fatalf("floor holder = %q, want s2 after holder left", c.Floor.Holder())
	}
}

func TestClassroomSlowAttendeeDrops(t *testing.T) {
	c := NewClassroom("class", nil)
	c.buffer = 1
	if _, err := c.Join("prof", RoleTeacher); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Join("slow", RoleStudent); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := c.Annotate("prof", "note"); err != nil {
			t.Fatal(err)
		}
	}
	// Buffers of 1 across two attendees: 2 delivered, 8 dropped.
	if c.Dropped() != 8 {
		t.Fatalf("dropped = %d, want 8", c.Dropped())
	}
}

func TestClassroomClose(t *testing.T) {
	c := NewClassroom("class", nil)
	a, err := c.Join("s1", RoleStudent)
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	if _, open := <-a.Annotations; open {
		t.Fatal("attendee channel open after Close")
	}
	if c.AttendeeCount() != 0 {
		t.Fatal("attendees remain after Close")
	}
}
