package serve

import "sync"

// pool is the bounded FIFO routing-worker pool: a buffered channel is the
// admission queue, a fixed set of goroutines drains it in order. It joins
// internal/bench on the sadplint goroutine-rule allowlist under the same
// discipline that pool follows — fixed worker count, results attached to
// the job (never to scheduling order), and the routing work itself
// single-goroutine per job.
type pool struct {
	queue chan *Job
	wg    sync.WaitGroup

	mu     sync.Mutex
	closed bool
}

func newPool(depth int) *pool {
	return &pool{queue: make(chan *Job, depth)}
}

// start launches the workers. Each worker runs admitted jobs one at a
// time until the queue is closed and empty.
func (p *pool) start(workers int, run func(*Job)) {
	for w := 0; w < workers; w++ {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			for j := range p.queue {
				run(j)
			}
		}()
	}
}

// tryEnqueue admits a job if the queue has room and the pool is open.
// Admission is serialized by p.mu, and only admitters send, so the
// full-check and the send cannot race each other or a close.
func (p *pool) tryEnqueue(j *Job) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return false
	}
	select {
	case p.queue <- j:
		return true
	default:
		return false
	}
}

// depth returns the number of queued (not yet claimed) jobs and the
// queue capacity.
func (p *pool) depth() (int, int) {
	return len(p.queue), cap(p.queue)
}

// close stops admission; workers exit after draining the queue.
// Idempotent.
func (p *pool) close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return
	}
	p.closed = true
	close(p.queue)
}

// wait blocks until every worker has exited (only meaningful after
// close).
func (p *pool) wait() { p.wg.Wait() }
