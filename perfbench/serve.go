package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os/exec"
	"strings"
	"syscall"
	"time"

	"hsched/internal/analysis"
	"hsched/internal/httpd"
	"hsched/internal/model"
	"hsched/internal/spec"
)

const (
	servePopulation = 256 // distinct systems, well inside the parse memo (512) and intern pool (4096)
	serveWindow     = 4   // requests in flight per connection
	serveFreshEvery = 32  // one request in this many carries a body never sent before
	ioTimeout       = 30 * time.Second

	freshPrefix = "fresh-"
	freshDigits = 8
)

type codec int

const (
	codecJSON codec = iota
	codecBinary
	numCodecs
)

// serve: the hsched server over loopback, in a child process, fed by
// keep-alive connections that pipeline pre-encoded requests, half JSON
// and half binary. Repeated bodies ride the parse memo and the binary
// intern hit; the fresh ones (a population system with a transaction
// renamed to a never-used name) pay a cold decode and an analysis.
type serveInst struct {
	srv    *server
	http   *http.Client
	expect []expect
	reqs   [numCodecs][]request // population requests
	fresh  [numCodecs][]request // templates of fresh requests
	conns  []*serveConn

	warmN, warmFails int64
}

// request is one pre-encoded HTTP request. For a fresh template,
// digits is the offset of the placeholder id in the name.
type request struct {
	data   []byte
	digits int
}

// expect is what a correct response says about one system: the
// reference analysis's verdict, iteration count, and every
// transaction's deadline and end-to-end bound.
type expect struct {
	sched, conv bool
	iters       int
	deadline    []float64
	response    []float64
}

func expectOf(res *analysis.Result) expect {
	e := expect{sched: res.Schedulable, conv: res.Converged, iters: res.Iterations}
	for i, row := range res.Tasks {
		e.deadline = append(e.deadline, res.System.Transactions[i].Deadline)
		e.response = append(e.response, row[len(row)-1].Worst)
	}
	return e
}

// matches compares a decoded response bit for bit with the reference.
func (e *expect) matches(r *httpd.AnalyzeResponse) bool {
	if r.Schedulable != e.sched || r.Converged != e.conv || r.Iterations != e.iters || len(r.Transactions) != len(e.response) {
		return false
	}
	for i, tv := range r.Transactions {
		want, dl := e.response[i], e.deadline[i]
		if math.Float64bits(tv.Deadline) != math.Float64bits(dl) {
			return false
		}
		if tv.Response == nil {
			if !math.IsInf(want, 1) {
				return false
			}
		} else if math.Float64bits(*tv.Response) != math.Float64bits(want) {
			return false
		}
		if tv.Schedulable != (!math.IsInf(want, 1) && want <= dl) {
			return false
		}
	}
	return true
}

func setupServe(cfg config, _ *tracer) (instance, error) {
	rng := rngFor(cfg.seed, 300)
	pop := make([]*model.System, servePopulation)
	for i := range pop {
		pop[i] = mixedSystem(rng)
	}
	s := &serveInst{expect: make([]expect, len(pop))}
	if err := analyzeAll(pop, analysis.Options{}, func(i int, res *analysis.Result) {
		s.expect[i] = expectOf(res)
	}); err != nil {
		return nil, err
	}

	// Encode every body before the server exists; only the Host line
	// waits for its address.
	var bodies, freshBodies [numCodecs][][]byte
	for _, sys := range pop {
		renamed := sys.Clone()
		renamed.Transactions[0].Name = freshPrefix + strings.Repeat("0", freshDigits)
		for cd, sy := range []*model.System{sys, renamed} {
			j, err := json.Marshal(&httpd.AnalyzeRequest{System: spec.FromSystem(sy)})
			if err != nil {
				return nil, err
			}
			b, err := httpd.EncodeAnalyzeRequestBinary(sy, httpd.OptionsSpec{})
			if err != nil {
				return nil, err
			}
			if cd == 0 {
				bodies[codecJSON] = append(bodies[codecJSON], j)
				bodies[codecBinary] = append(bodies[codecBinary], b)
			} else {
				freshBodies[codecJSON] = append(freshBodies[codecJSON], j)
				freshBodies[codecBinary] = append(freshBodies[codecBinary], b)
			}
		}
	}

	srv, err := startServer(cfg.hsched)
	if err != nil {
		return nil, err
	}
	s.srv = srv
	s.http = &http.Client{Timeout: ioTimeout}
	for cd := codec(0); cd < numCodecs; cd++ {
		for i := range pop {
			s.reqs[cd] = append(s.reqs[cd], request{data: frame(srv.addr, cd, bodies[cd][i]), digits: -1})
			data := frame(srv.addr, cd, freshBodies[cd][i])
			s.fresh[cd] = append(s.fresh[cd], request{data: data, digits: bytes.Index(data, []byte(freshPrefix)) + len(freshPrefix)})
		}
	}

	// Warm-up: every population body once per codec, in order, on a
	// connection of its own, so the parse memo, the intern pool and the
	// verdict memo hold the whole population.
	warm := s.newConn(-1, 0)
	if err := warm.dial(); err != nil {
		s.close() //nolint:errcheck // the dial error is the one to report
		return nil, err
	}
	for i := range pop {
		for cd := codec(0); cd < numCodecs; cd++ {
			s.warmN++
			if err := warm.write(i, cd, false); err != nil {
				s.warmFails++
				continue
			}
			status, body, err := warm.read()
			p := warm.pending[0]
			warm.pending = warm.pending[1:]
			if err != nil || !warm.verify(p, status, body) {
				s.warmFails++
			}
		}
	}
	warm.nc.Close()

	for c := 0; c < cfg.clients; c++ {
		cn := s.newConn(c, cfg.seed)
		if err := cn.dial(); err != nil {
			s.close() //nolint:errcheck // as above
			return nil, err
		}
		s.conns = append(s.conns, cn)
	}
	return s, nil
}

// frame prepends the HTTP/1.1 request head to an analyze body.
func frame(addr string, cd codec, body []byte) []byte {
	ctype, accept := "application/json", ""
	if cd == codecBinary {
		ctype = httpd.ContentTypeBinary
		accept = "Accept: " + httpd.ContentTypeBinary + "\r\n"
	}
	head := fmt.Sprintf("POST /v1/analyze HTTP/1.1\r\nHost: %s\r\nContent-Type: %s\r\n%sContent-Length: %d\r\n\r\n",
		addr, ctype, accept, len(body))
	return append([]byte(head), body...)
}

func (s *serveInst) op(c int, ct *clientTrace) (time.Duration, bool) {
	cn := s.conns[c]
	if cn.nc == nil {
		if err := cn.dial(); err != nil {
			time.Sleep(10 * time.Millisecond) // the server is gone; do not spin
			return 0, false
		}
	}
	for len(cn.pending) < serveWindow {
		if err := cn.send(); err != nil {
			cn.reset()
			return 0, false
		}
	}
	p := cn.pending[0]
	status, body, err := cn.read()
	lat := time.Since(p.t0)
	if err != nil {
		cn.reset()
		return lat, false
	}
	cn.pending = cn.pending[1:]
	if ct != nil {
		start := int64(p.t0.Sub(ct.t.base))
		ct.end(ct.begin(start), start, start+int64(lat))
	}
	return lat, cn.verify(p, status, body)
}

func (s *serveInst) drain(c int) (n, failed int64) {
	cn := s.conns[c]
	n, failed = cn.lost, cn.lost
	cn.lost = 0
	for len(cn.pending) > 0 {
		p := cn.pending[0]
		status, body, err := cn.read()
		if err != nil {
			k := int64(len(cn.pending))
			cn.reset()
			cn.lost = 0
			return n + k, failed + k
		}
		cn.pending = cn.pending[1:]
		n++
		if !cn.verify(p, status, body) {
			failed++
		}
	}
	return n, failed
}

func (s *serveInst) check() int64              { return 0 }
func (s *serveInst) warmed() (n, failed int64) { return s.warmN, s.warmFails }

func (s *serveInst) counters() (counters, error) {
	resp, err := s.http.Get("http://" + s.srv.addr + "/v1/stats")
	if err != nil {
		return counters{}, fmt.Errorf("GET /v1/stats: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return counters{}, fmt.Errorf("GET /v1/stats: status %d", resp.StatusCode)
	}
	var st httpd.StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return counters{}, fmt.Errorf("GET /v1/stats: %w", err)
	}
	ep := st.Endpoints["analyze"]
	out := counters{
		remote:     true,
		svc:        st.Service,
		parseHits:  st.ParseHits,
		binaryHits: st.BinaryHits,
		requests:   ep.Requests,
		handlerUS:  ep.MeanUS * float64(ep.Requests),
		shed:       ep.Shed,
	}
	for _, cn := range s.conns {
		out.jsonSent += cn.sent[codecJSON]
		out.binarySent += cn.sent[codecBinary]
	}
	return out, nil
}

func (s *serveInst) close() (float64, error) {
	for _, cn := range s.conns {
		if cn.nc != nil {
			cn.nc.Close()
			cn.nc = nil
		}
	}
	if s.http != nil {
		s.http.CloseIdleConnections()
	}
	return s.srv.stop()
}

// ---- client connection ----------------------------------------------

// serveConn is one keep-alive connection with up to serveWindow
// pipelined requests in flight; responses arrive in request order.
type serveConn struct {
	inst    *serveInst
	id      int
	nc      net.Conn
	br      *bufio.Reader
	rng     *rand.Rand
	freshN  int64
	pending []pendingReq
	scratch []byte
	body    []byte
	sent    [numCodecs]int64
	lost    int64 // requests lost with a broken connection
	checked [numCodecs][]checkedResp
}

type pendingReq struct {
	t0    time.Time
	pop   int
	codec codec
	fresh bool
}

// checkedResp is a response already compared in full with the
// reference, split around its elapsed-time field: a later response to
// the same request that differs only in that field is equally correct.
type checkedResp struct{ head, tail []byte }

func (s *serveInst) newConn(id int, seed int64) *serveConn {
	cn := &serveConn{inst: s, id: id, rng: rngFor(seed, 400+id)}
	for cd := range cn.checked {
		cn.checked[cd] = make([]checkedResp, len(s.expect))
	}
	return cn
}

func (cn *serveConn) dial() error {
	nc, err := net.DialTimeout("tcp", cn.inst.srv.addr, ioTimeout)
	if err != nil {
		return fmt.Errorf("dialing the server: %w", err)
	}
	cn.nc, cn.br = nc, bufio.NewReaderSize(nc, 16<<10)
	return nil
}

func (cn *serveConn) reset() {
	cn.nc.Close()
	cn.nc = nil
	cn.lost += int64(len(cn.pending))
	cn.pending = cn.pending[:0]
}

// send writes the connection's next request: a population body, or
// one time in serveFreshEvery a fresh one.
func (cn *serveConn) send() error {
	pop := cn.rng.Intn(len(cn.inst.expect))
	cd := codec(cn.rng.Intn(int(numCodecs)))
	return cn.write(pop, cd, cn.rng.Intn(serveFreshEvery) == 0)
}

func (cn *serveConn) write(pop int, cd codec, fresh bool) error {
	data := cn.inst.reqs[cd][pop].data
	if fresh {
		t := cn.inst.fresh[cd][pop]
		cn.scratch = append(cn.scratch[:0], t.data...)
		id := cn.freshN*int64(len(cn.inst.conns)) + int64(cn.id)
		cn.freshN++
		for k := t.digits + freshDigits - 1; k >= t.digits; k-- {
			cn.scratch[k] = byte('0' + id%10)
			id /= 10
		}
		data = cn.scratch
	}
	if err := cn.nc.SetDeadline(time.Now().Add(ioTimeout)); err != nil {
		return err
	}
	t0 := time.Now()
	if _, err := cn.nc.Write(data); err != nil {
		return err
	}
	cn.pending = append(cn.pending, pendingReq{t0: t0, pop: pop, codec: cd, fresh: fresh})
	cn.sent[cd]++
	return nil
}

var errBadResponse = errors.New("malformed HTTP response")

// read parses the next response: status code and body (Content-Length
// or chunked). The body aliases a buffer the next read reuses.
func (cn *serveConn) read() (int, []byte, error) {
	line, err := cn.br.ReadSlice('\n')
	if err != nil {
		return 0, nil, err
	}
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.")) {
		return 0, nil, errBadResponse
	}
	status, ok := atoi(line[9:12])
	if !ok {
		return 0, nil, errBadResponse
	}
	length, chunked := -1, false
	for {
		line, err = cn.br.ReadSlice('\n')
		if err != nil {
			return 0, nil, err
		}
		if len(bytes.TrimSpace(line)) == 0 {
			break
		}
		k := bytes.IndexByte(line, ':')
		if k < 0 {
			return 0, nil, errBadResponse
		}
		name, val := line[:k], bytes.TrimSpace(line[k+1:])
		switch {
		case bytes.EqualFold(name, []byte("Content-Length")):
			if length, ok = atoi(val); !ok {
				return 0, nil, errBadResponse
			}
		case bytes.EqualFold(name, []byte("Transfer-Encoding")):
			chunked = bytes.Contains(val, []byte("chunked"))
		}
	}
	cn.body = cn.body[:0]
	switch {
	case chunked:
		for {
			line, err = cn.br.ReadSlice('\n')
			if err != nil {
				return 0, nil, err
			}
			size, ok := hexAtoi(bytes.TrimSpace(line))
			if !ok {
				return 0, nil, errBadResponse
			}
			if size == 0 {
				// Trailer section: lines up to an empty one.
				for {
					if line, err = cn.br.ReadSlice('\n'); err != nil {
						return 0, nil, err
					}
					if len(bytes.TrimSpace(line)) == 0 {
						return status, cn.body, nil
					}
				}
			}
			if err := cn.readN(size); err != nil {
				return 0, nil, err
			}
			if _, err := cn.br.Discard(2); err != nil { // chunk CRLF
				return 0, nil, err
			}
		}
	case length >= 0:
		if err := cn.readN(length); err != nil {
			return 0, nil, err
		}
		return status, cn.body, nil
	default:
		return 0, nil, errBadResponse
	}
}

// readN appends the next n body bytes to cn.body.
func (cn *serveConn) readN(n int) error {
	off := len(cn.body)
	cn.body = append(cn.body, make([]byte, n)...)
	_, err := io.ReadFull(cn.br, cn.body[off:])
	return err
}

func atoi(b []byte) (int, bool) {
	if len(b) == 0 || len(b) > 9 {
		return 0, false
	}
	n := 0
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int(c-'0')
	}
	return n, true
}

func hexAtoi(b []byte) (int, bool) {
	if len(b) == 0 || len(b) > 7 {
		return 0, false
	}
	n := 0
	for _, c := range b {
		switch {
		case c >= '0' && c <= '9':
			n = n*16 + int(c-'0')
		case c >= 'a' && c <= 'f':
			n = n*16 + int(c-'a'+10)
		case c >= 'A' && c <= 'F':
			n = n*16 + int(c-'A'+10)
		default:
			return 0, false
		}
	}
	return n, true
}

// verify checks one response against the reference. A response equal,
// up to its elapsed time, to one this connection already checked in
// full for the same request passes without decoding.
func (cn *serveConn) verify(p pendingReq, status int, body []byte) bool {
	if status != http.StatusOK {
		return false
	}
	var memo *checkedResp
	if !p.fresh {
		memo = &cn.checked[p.codec][p.pop]
		if memo.head != nil && memo.matches(body, p.codec) {
			return true
		}
	}
	var resp *httpd.AnalyzeResponse
	if p.codec == codecBinary {
		r, err := httpd.DecodeAnalyzeResponseBinary(body)
		if err != nil {
			return false
		}
		resp = r
	} else {
		resp = new(httpd.AnalyzeResponse)
		if err := json.Unmarshal(body, resp); err != nil {
			return false
		}
	}
	if !cn.inst.expect[p.pop].matches(resp) {
		return false
	}
	if memo != nil {
		if at, end, ok := elapsedField(body, p.codec); ok {
			memo.head = append([]byte(nil), body[:at]...)
			memo.tail = append([]byte(nil), body[end:]...)
		}
	}
	return true
}

// binaryElapsedAt is the offset of the float64 elapsed time in a
// binary analyze response (after version, flags, iterations and the
// two pruning counts).
const binaryElapsedAt = 5 * 8

// elapsedField locates the elapsed-time value in a response body.
func elapsedField(body []byte, cd codec) (at, end int, ok bool) {
	if cd == codecBinary {
		if len(body) < binaryElapsedAt+8 {
			return 0, 0, false
		}
		return binaryElapsedAt, binaryElapsedAt + 8, true
	}
	key := []byte(`"elapsed_ms":`)
	k := bytes.Index(body, key)
	if k < 0 {
		return 0, 0, false
	}
	at = k + len(key)
	end = at
	for end < len(body) && strings.IndexByte("0123456789.eE+-", body[end]) >= 0 {
		end++
	}
	return at, end, end > at
}

func (m *checkedResp) matches(body []byte, cd codec) bool {
	if !bytes.HasPrefix(body, m.head) || !bytes.HasSuffix(body[len(m.head):], m.tail) {
		return false
	}
	at, end, ok := elapsedField(body, cd)
	return ok && at == len(m.head) && end == len(body)-len(m.tail)
}

// ---- server process ---------------------------------------------------

// server is a running `hsched serve` child process.
type server struct {
	cmd     *exec.Cmd
	addr    string
	stderr  bytes.Buffer
	outDone chan struct{}
}

// startServer starts `hsched serve` on a free loopback port and waits
// for the line announcing its address.
func startServer(bin string) (*server, error) {
	if bin == "" {
		return nil, errors.New("the serve workload needs the hsched binary (-hsched)")
	}
	s := &server{outDone: make(chan struct{})}
	s.cmd = exec.Command(bin, "serve", "-addr", "127.0.0.1:0")
	s.cmd.Stderr = &s.stderr
	// The server must not outlive the benchmark, however it ends.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := s.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s serve: %w", bin, err)
	}
	lines := make(chan string, 1)
	go func() {
		br := bufio.NewReader(out)
		line, _ := br.ReadString('\n')
		lines <- line
		io.Copy(io.Discard, br) //nolint:errcheck // drains the pipe until the server exits
		close(s.outDone)
	}()
	const prefix = "hsched serve: listening on "
	var line string
	select {
	case line = <-lines:
	case <-time.After(ioTimeout):
	}
	if !strings.HasPrefix(line, prefix) {
		s.cmd.Process.Kill() //nolint:errcheck // it is being discarded
		<-s.outDone
		s.cmd.Wait() //nolint:errcheck // the start failure is the one to report
		return nil, fmt.Errorf("hsched serve did not start: %q: %s", line, s.stderr.String())
	}
	s.addr = strings.TrimSpace(strings.TrimPrefix(line, prefix))
	return s, nil
}

// stop drains the server with SIGTERM, waits for it to exit, and
// returns its peak resident set in MB.
func (s *server) stop() (float64, error) {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return 0, fmt.Errorf("stopping hsched serve: %w", err)
	}
	done := make(chan error, 1)
	go func() {
		<-s.outDone
		done <- s.cmd.Wait()
	}()
	var err error
	select {
	case err = <-done:
	case <-time.After(ioTimeout):
		s.cmd.Process.Kill() //nolint:errcheck // it failed to drain; the error below reports that
		<-done
		err = errors.New("did not drain in time")
	}
	var rssMB float64
	if ru, ok := s.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rssMB = float64(ru.Maxrss) / 1024
	}
	if err != nil {
		return rssMB, fmt.Errorf("hsched serve: %v: %s", err, s.stderr.String())
	}
	return rssMB, nil
}
