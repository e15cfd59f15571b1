package cluster

import (
	"net"
	"strings"
	"testing"
	"time"

	"bcc/internal/wire"
)

// rawPeer is a hand-written worker connection speaking wire frames directly,
// so tests can send what a well-behaved DialAndServeWorker never would.
type rawPeer struct {
	conn net.Conn
	w    *wire.Writer
}

func dialPeer(t *testing.T, addr string, pc wire.PayloadConfig) *rawPeer {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	w := wire.NewWriter(conn)
	w.SetPayload(pc)
	return &rawPeer{conn: conn, w: w}
}

func (p *rawPeer) hello(t *testing.T, h wire.Hello) {
	t.Helper()
	if err := p.w.WriteHello(h); err != nil {
		t.Fatal(err)
	}
}

func (p *rawPeer) reply(t *testing.T, iter, worker int, vec []float64) {
	t.Helper()
	rep := wire.Reply{Iter: iter, Worker: worker, Msgs: []wire.Msg{{From: worker, Units: 1, Vec: vec}}}
	if err := p.w.WriteReply(rep); err != nil {
		t.Fatal(err)
	}
}

// serveAsync runs ServeMaster in the background and returns its result
// channel, so a test can dial peers before the accept loop needs them.
func serveAsync(ln net.Listener, n, alive int, timeout time.Duration, comm CommOptions, dim int) <-chan error {
	errc := make(chan error, 1)
	go func() {
		fab, err := ServeMaster(ln, n, alive, timeout, nil, comm, dim)
		if err == nil {
			fab.Close()
		}
		errc <- err
	}()
	return errc
}

func listen(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	return ln
}

// readersDone reports whether every connection reader of f exits within d.
func readersDone(f *tcpFabric, d time.Duration) bool {
	done := make(chan struct{})
	go func() {
		f.readers.Wait()
		close(done)
	}()
	select {
	case <-done:
		return true
	case <-time.After(d):
		return false
	}
}

// TestServeMasterHelloTimeout pins the handshake bound: a peer that connects
// and never sends its hello ends ServeMaster in an error within about the
// timeout instead of blocking the master forever.
func TestServeMasterHelloTimeout(t *testing.T) {
	const timeout = 200 * time.Millisecond
	const dim = 12
	wait := func(t *testing.T, errc <-chan error) {
		t.Helper()
		start := time.Now()
		select {
		case err := <-errc:
			if err == nil || !strings.Contains(err.Error(), "handshake") {
				t.Fatalf("silent peer: got %v, want a handshake error", err)
			}
			if el := time.Since(start); el > 10*timeout {
				t.Fatalf("silent peer held the master for %v (timeout %v)", el, timeout)
			}
		case <-time.After(20 * timeout):
			t.Fatal("ServeMaster still blocked on a silent peer")
		}
	}
	t.Run("primary", func(t *testing.T) {
		ln := listen(t)
		dialPeer(t, ln.Addr().String(), wire.PayloadConfig{})
		wait(t, serveAsync(ln, 1, 1, timeout, CommOptions{}, dim))
	})
}

// TestPrimaryIntakeRejectsMalformedReplies pins the master's reply intake:
// a reply whose payload is not the model dimension, or whose worker index is
// not the one the connection's hello announced, is refused and the
// connection dropped — nothing after it reaches the engine.
// A well-formed reply sent later than the handshake timeout still arrives,
// so the hello deadline is cleared once the handshake is done.
func TestPrimaryIntakeRejectsMalformedReplies(t *testing.T) {
	const dim = 12
	const timeout = 100 * time.Millisecond
	good := make([]float64, dim)
	for _, tc := range []struct {
		name   string
		worker int
		vec    []float64
	}{
		{"short-payload", 0, make([]float64, 1)},
		{"long-payload", 0, make([]float64, 100)},
		{"wrong-worker", 1, good},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ln := listen(t)
			p := dialPeer(t, ln.Addr().String(), wire.PayloadConfig{})
			p.hello(t, wire.Hello{Worker: 0, Chunk: wire.DefaultChunk})
			fab, err := ServeMaster(ln, 2, 1, timeout, nil, CommOptions{}, dim)
			if err != nil {
				t.Fatal(err)
			}
			defer fab.Close()
			time.Sleep(3 * timeout)
			p.reply(t, 0, 0, good)
			select {
			case rep := <-fab.Replies():
				if rep.Iter != 0 || len(rep.Msgs) != 1 || len(rep.Msgs[0].Vec) != dim {
					t.Fatalf("well-formed reply arrived as %+v", rep)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("well-formed reply never arrived")
			}
			p.reply(t, 1, tc.worker, tc.vec)
			p.reply(t, 2, 0, good)
			if !readersDone(fab.(*tcpFabric), 10*time.Second) {
				t.Fatal("reader kept the connection after a malformed reply")
			}
			select {
			case rep := <-fab.Replies():
				t.Fatalf("reply %d of worker %d got past a malformed frame", rep.Iter, rep.Worker)
			default:
			}
		})
	}
}
