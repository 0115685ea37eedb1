// In-job rank recovery: the OMPI-layer half of the ULFM-style fault
// handling added on top of the paper's whole-job restart. When a node
// dies, surviving processes do not tear down — the communication layers
// surface the failure as a typed RankFailedError to the application's
// errhandler (the MPI_ERRORS_RETURN posture), and the process asks the
// runtime, via Config.Recover, for a recovery order: a port on the
// rebuilt fabric plus a restore source at the job's newest committed
// checkpoint frontier. The process rolls itself back in place, reports
// its restored channel bookmarks for re-knit verification, and resumes
// stepping once the coordinator releases the session. A respawned
// replacement rank runs the same rendezvous through Config.RecoveryGate.
package ompi

import (
	"errors"
	"fmt"

	"repro/internal/ompi/btl"
	"repro/internal/opal/inc"
)

// RankFailedError is the typed failure an application's errhandler
// receives when peer ranks are lost: which ranks died, on which node,
// and whether the "failure" is a planned migration rather than a fault.
type RankFailedError struct {
	Ranks   []int  // the lost ranks
	Node    string // the dead node; "" for a planned migration
	Planned bool   // true when the ranks were taken down for migration
	Cause   error  // the local symptom that surfaced the failure
}

// Error implements error.
func (e *RankFailedError) Error() string {
	kind := "failed"
	if e.Planned {
		kind = "migrating"
	}
	if e.Node != "" {
		return fmt.Sprintf("ompi: ranks %v %s (node %q lost): %v", e.Ranks, kind, e.Node, e.Cause)
	}
	return fmt.Sprintf("ompi: ranks %v %s: %v", e.Ranks, kind, e.Cause)
}

// Unwrap exposes the underlying transport symptom to errors.Is.
func (e *RankFailedError) Unwrap() error { return e.Cause }

// RecoverOrder is the runtime's answer to a surviving rank's recovery
// request: rebind to Port, restore from Restore (the job-uniform
// recovery frontier), then call Report with the restored channel
// bookmark state. Report blocks until every rank of the job has been
// verified and the coordinator releases the session (nil) or aborts it
// (error — the rank must then fail, falling back to whole-job restart).
type RecoverOrder struct {
	// Interval is the committed checkpoint interval the job rolls back to.
	Interval int
	// Port is this rank's endpoint on the rebuilt job fabric.
	Port btl.Port
	// Restore is the local snapshot to roll back to; never nil.
	Restore *RestoreSpec
	// Failed describes the failure for the application's errhandler.
	Failed *RankFailedError
	// Report delivers the restored CRCP bookmark bytes (nil when the
	// protocol keeps no channel state) and the local restore outcome,
	// then blocks for the session verdict.
	Report func(bookmarks []byte, restoreErr error) error
}

// SetErrhandler installs an observational error handler, the analogue of
// MPI_Comm_set_errhandler(MPI_ERRORS_RETURN) plus an error callback: it
// is invoked on the application goroutine with the typed RankFailedError
// whenever peer loss interrupts this process, before recovery proceeds.
func (p *Proc) SetErrhandler(fn func(*RankFailedError)) { p.errhandler = fn }

// IsCommFailure reports whether err is the local symptom of lost peers:
// the transport endpoint detached under us or a peer vanished. Only such
// failures are recoverable in-job; application errors are not.
func IsCommFailure(err error) bool {
	return errors.Is(err, btl.ErrDetached) || errors.Is(err, btl.ErrNoPeer)
}

// bookmarksNow snapshots the CRCP protocol's channel counters. Called
// after a restore and before StateRestart zeroes them: the counters at
// that instant describe the restored cut, which is what the re-knit
// verification compares pairwise across ranks.
func (p *Proc) bookmarksNow() []byte {
	bm, err := p.prot.Save()
	if err != nil {
		return nil
	}
	return bm
}

// restoreFrom rolls the process back to a local snapshot: CRS restore,
// bookmark capture for re-knit, collective-namespace normalization, and
// the StateRestart INC sweep. Shared by the whole-job restart path in
// Run and the in-job rollback in tryRecover.
func (p *Proc) restoreFrom(restore *RestoreSpec) error {
	if err := p.cfg.CRS.Restart(p, restore.FS, restore.Dir, restore.Files); err != nil {
		return err
	}
	p.lastBookmarks = p.bookmarksNow()
	// Normalize cross-rank library bookkeeping. The cut is always a
	// fully-quiesced uniform step frontier, so every collective had
	// completed on every rank: restarting the collective tag namespace
	// at zero is consistent even when ranks restored through different
	// CRS components (a SELF rank has no library image at all — the
	// paper's heterogeneous scenario).
	p.coll.SetSeq(0)
	p.restarted = true
	if err := p.incs.Call(inc.StateRestart); err != nil {
		return fmt.Errorf("restart INC: %w", err)
	}
	return nil
}

// tryRecover is the surviving rank's half of an in-job recovery session.
// Returning nil means the process has been rolled back to the recovery
// frontier, rebound to the new fabric, and may resume stepping;
// returning an error means the process must die (whole-job fallback).
func (p *Proc) tryRecover(cause error) error {
	if p.cfg.Recover == nil || !IsCommFailure(cause) {
		return cause
	}
	// Refuse any checkpoint directives that raced the failure: this
	// process cannot participate while its fabric is gone, and a local
	// coordinator must never hang on it.
	p.deadMu.Lock()
	p.refuseQueuedLocked()
	p.deadMu.Unlock()
	ord, err := p.cfg.Recover(cause)
	if err != nil {
		if p.errhandler != nil {
			var rf *RankFailedError
			if errors.As(err, &rf) {
				p.errhandler(rf)
			}
		}
		return fmt.Errorf("ompi: rank %d unrecoverable: %w", p.cfg.Rank, err)
	}
	if p.errhandler != nil && ord.Failed != nil {
		p.errhandler(ord.Failed)
	}
	// Patch the transport first: the PML must speak through the rebuilt
	// fabric before the restore resurrects its channel state.
	p.ep = ord.Port
	p.eng.Rebind(ord.Port)
	var rerr error
	if ord.Restore == nil {
		rerr = fmt.Errorf("ompi: rank %d recovery: no restore source", p.cfg.Rank)
	} else {
		rerr = p.restoreFrom(ord.Restore)
	}
	// Report the restored bookmarks (nil on failure) and park for the
	// session verdict; the coordinator verifies the pairwise channel
	// counts across all ranks before releasing anyone.
	if ord.Report != nil {
		if err := ord.Report(p.lastBookmarks, rerr); err != nil {
			return fmt.Errorf("ompi: rank %d recovery aborted: %w", p.cfg.Rank, err)
		}
	}
	if rerr != nil {
		return fmt.Errorf("ompi: rank %d recovery restore: %w", p.cfg.Rank, rerr)
	}
	// Back in business: re-open the gate the failed step loop closed and
	// resume at the restored frontier. Directives from pre-recovery
	// intervals were fenced off when the session completed
	// (FenceDirectives), so the mailbox holds no stale orders.
	p.gate.Enable()
	p.setCheckpointable(true)
	p.termRequested = false
	p.ins.Counter("ompi_rank_recoveries_total").Inc()
	p.log.Emit(p.source(), "proc.recovered", "resumed at interval %d after %v", ord.Interval, cause)
	return nil
}
