package rml

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/orte/names"
)

func pair(t *testing.T) (*Router, *Endpoint, *Endpoint) {
	t.Helper()
	r := NewRouter()
	a, err := r.Register(names.HNP)
	if err != nil {
		t.Fatalf("Register HNP: %v", err)
	}
	b, err := r.Register(names.Daemon(0))
	if err != nil {
		t.Fatalf("Register daemon: %v", err)
	}
	return r, a, b
}

func TestSendRecv(t *testing.T) {
	_, hnp, orted := pair(t)
	if err := hnp.Send(orted.Name(), TagSnapcRequest, []byte("ckpt job 1")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	m, err := orted.Recv(TagSnapcRequest)
	if err != nil {
		t.Fatalf("Recv: %v", err)
	}
	if m.From != names.HNP || string(m.Data) != "ckpt job 1" {
		t.Errorf("message = %+v", m)
	}
}

func TestRecvMatchesTag(t *testing.T) {
	_, hnp, orted := pair(t)
	// Two messages with different tags; receive the second tag first.
	if err := hnp.Send(orted.Name(), TagSnapcRequest, []byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := hnp.Send(orted.Name(), TagFilemRequest, []byte("b")); err != nil {
		t.Fatal(err)
	}
	m, err := orted.Recv(TagFilemRequest)
	if err != nil {
		t.Fatalf("Recv: %v", err)
	}
	if string(m.Data) != "b" {
		t.Errorf("got %q, want b", m.Data)
	}
	m, err = orted.Recv(TagSnapcRequest)
	if err != nil {
		t.Fatalf("Recv: %v", err)
	}
	if string(m.Data) != "a" {
		t.Errorf("got %q, want a", m.Data)
	}
	if orted.Pending() != 0 {
		t.Errorf("Pending = %d, want 0", orted.Pending())
	}
}

func TestRecvFrom(t *testing.T) {
	r := NewRouter()
	hnp, _ := r.Register(names.HNP)
	d0, _ := r.Register(names.Daemon(0))
	d1, _ := r.Register(names.Daemon(1))

	if err := d1.Send(names.HNP, TagSnapcAck, []byte("from d1")); err != nil {
		t.Fatal(err)
	}
	if err := d0.Send(names.HNP, TagSnapcAck, []byte("from d0")); err != nil {
		t.Fatal(err)
	}
	m, err := hnp.RecvFrom(names.Daemon(0), TagSnapcAck)
	if err != nil {
		t.Fatalf("RecvFrom: %v", err)
	}
	if string(m.Data) != "from d0" {
		t.Errorf("got %q, want from d0", m.Data)
	}
}

func TestOrderingPerPair(t *testing.T) {
	_, hnp, orted := pair(t)
	for i := 0; i < 100; i++ {
		if err := hnp.Send(orted.Name(), TagUser, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		m, err := orted.Recv(TagUser)
		if err != nil {
			t.Fatal(err)
		}
		if m.Data[0] != byte(i) {
			t.Fatalf("message %d arrived out of order (got %d)", i, m.Data[0])
		}
	}
}

func TestBlockingRecvWakesOnSend(t *testing.T) {
	_, hnp, orted := pair(t)
	got := make(chan Message, 1)
	go func() {
		m, err := orted.Recv(TagJobCtl)
		if err != nil {
			t.Errorf("Recv: %v", err)
			return
		}
		got <- m
	}()
	time.Sleep(10 * time.Millisecond)
	if err := hnp.Send(orted.Name(), TagJobCtl, []byte("launch")); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-got:
		if string(m.Data) != "launch" {
			t.Errorf("got %q", m.Data)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("blocked receive never woke")
	}
}

func TestRecvTimeout(t *testing.T) {
	_, _, orted := pair(t)
	start := time.Now()
	_, err := orted.RecvTimeout(TagUser, 30*time.Millisecond)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if time.Since(start) > time.Second {
		t.Error("timeout took far too long")
	}
}

func TestTryRecvJSONDoesNotWait(t *testing.T) {
	_, hnp, orted := pair(t)
	var v struct{ N int }
	if ok, err := hnp.TryRecvJSON(TagHeartbeat, &v); ok || err != nil {
		t.Fatalf("empty mailbox: ok=%v err=%v", ok, err)
	}
	for i := 1; i <= 2; i++ {
		if err := orted.SendJSON(names.HNP, TagHeartbeat, struct{ N int }{i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := orted.Send(names.HNP, TagUser, []byte("other tag")); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 2; i++ {
		if ok, err := hnp.TryRecvJSON(TagHeartbeat, &v); !ok || err != nil || v.N != i {
			t.Fatalf("queued message %d: ok=%v err=%v v=%+v", i, ok, err, v)
		}
	}
	if ok, _ := hnp.TryRecvJSON(TagHeartbeat, &v); ok {
		t.Fatal("drained tag still yields a message")
	}
	if err := orted.Send(names.HNP, TagHeartbeat, []byte("{")); err != nil {
		t.Fatal(err)
	}
	if ok, err := hnp.TryRecvJSON(TagHeartbeat, &v); !ok || err == nil {
		t.Fatalf("malformed message: ok=%v err=%v", ok, err)
	}
	if hnp.Pending() != 1 {
		t.Fatalf("pending = %d, want the other tag's message", hnp.Pending())
	}
}

func TestSendToUnknownPeer(t *testing.T) {
	_, hnp, _ := pair(t)
	err := hnp.Send(names.Proc(9, 9), TagUser, nil)
	if !errors.Is(err, ErrUnknownPeer) {
		t.Errorf("err = %v, want ErrUnknownPeer", err)
	}
}

func TestDuplicateRegistration(t *testing.T) {
	r := NewRouter()
	if _, err := r.Register(names.HNP); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Register(names.HNP); err == nil {
		t.Error("duplicate registration succeeded")
	}
}

func TestDeregisterFailsBlockedRecv(t *testing.T) {
	r := NewRouter()
	_, _ = r.Register(names.HNP)
	orted, _ := r.Register(names.Daemon(0))
	errc := make(chan error, 1)
	go func() {
		_, err := orted.Recv(TagUser)
		errc <- err
	}()
	time.Sleep(10 * time.Millisecond)
	r.Deregister(names.Daemon(0))
	select {
	case err := <-errc:
		if !errors.Is(err, ErrClosed) {
			t.Errorf("err = %v, want ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Recv did not fail after Deregister")
	}
}

func TestRouterClose(t *testing.T) {
	r, hnp, orted := pair(t)
	r.Close()
	if err := hnp.Send(orted.Name(), TagUser, nil); !errors.Is(err, ErrClosed) {
		t.Errorf("Send after Close: err = %v, want ErrClosed", err)
	}
	if _, err := orted.Recv(TagUser); !errors.Is(err, ErrClosed) {
		t.Errorf("Recv after Close: err = %v, want ErrClosed", err)
	}
	if _, err := r.Register(names.Proc(1, 0)); !errors.Is(err, ErrClosed) {
		t.Errorf("Register after Close: err = %v, want ErrClosed", err)
	}
	r.Close() // double close must be safe
}

func TestJSONRoundTrip(t *testing.T) {
	_, hnp, orted := pair(t)
	type ckptReq struct {
		Job  int  `json:"job"`
		Term bool `json:"term"`
	}
	if err := hnp.SendJSON(orted.Name(), TagSnapcRequest, ckptReq{Job: 5, Term: true}); err != nil {
		t.Fatalf("SendJSON: %v", err)
	}
	var got ckptReq
	from, err := orted.RecvJSON(TagSnapcRequest, &got)
	if err != nil {
		t.Fatalf("RecvJSON: %v", err)
	}
	if from != names.HNP || got.Job != 5 || !got.Term {
		t.Errorf("from=%v got=%+v", from, got)
	}
}

func TestRecvJSONBadPayload(t *testing.T) {
	_, hnp, orted := pair(t)
	if err := hnp.Send(orted.Name(), TagSnapcRequest, []byte("{nope")); err != nil {
		t.Fatal(err)
	}
	var v map[string]any
	if _, err := orted.RecvJSON(TagSnapcRequest, &v); err == nil {
		t.Error("RecvJSON accepted malformed payload")
	}
}

func TestConcurrentFanIn(t *testing.T) {
	r := NewRouter()
	hnp, _ := r.Register(names.HNP)
	const daemons = 16
	const per = 50
	var wg sync.WaitGroup
	for d := 0; d < daemons; d++ {
		ep, err := r.Register(names.Daemon(d))
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(ep *Endpoint, d int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := ep.Send(names.HNP, TagSnapcAck, []byte(fmt.Sprintf("%d:%d", d, i))); err != nil {
					t.Errorf("Send: %v", err)
					return
				}
			}
		}(ep, d)
	}
	received := 0
	for received < daemons*per {
		if _, err := hnp.RecvTimeout(TagSnapcAck, 5*time.Second); err != nil {
			t.Fatalf("RecvTimeout after %d messages: %v", received, err)
		}
		received++
	}
	wg.Wait()
	if hnp.Pending() != 0 {
		t.Errorf("Pending = %d after draining", hnp.Pending())
	}
}
