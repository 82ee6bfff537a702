open Pop_runtime

(* Failure-detector state for one peer slot. Mutated racily by whichever
   reclaimer runs a handshake round: every field is an immediate (int or
   bool), so concurrent updates cannot tear, and a lost update only
   delays or hastens a quarantine decision. Safety never depends on this
   state — a skipped suspect is reported as timed out and the caller
   takes the same conservative fallback it would take after burning the
   full spin budget. *)
type peer = {
  mutable strikes : int; (* consecutive timeouts with a stale heartbeat *)
  mutable hb_snap : int; (* heartbeat observed at the last timeout *)
  mutable quarantined : bool;
  mutable backoff_rounds : int; (* rounds between re-probes, doubling *)
  mutable next_probe : int; (* round number of the next allowed probe *)
}

type t = {
  counters : Striped.t;
  hub : Softsignal.t;
  timeout_spins : int;
  suspect_after : int;
  backoff_cap : int; (* ceiling on the doubling re-probe interval *)
  peers : peer array;
  rounds : int Atomic.t; (* global handshake-round clock *)
  suspects : int Atomic.t; (* quarantine transitions, cumulative *)
  quarantine_skips : int Atomic.t; (* suspect rounds given only the settle window *)
}

let create ?(timeout_spins = 64) ?(suspect_after = 3) ?(backoff_cap = 64) hub =
  if timeout_spins <= 0 then
    invalid_arg "Handshake.create: timeout_spins must be positive";
  if suspect_after <= 0 then
    invalid_arg "Handshake.create: suspect_after must be positive";
  if backoff_cap <= 0 then
    invalid_arg "Handshake.create: backoff_cap must be positive";
  let n = Softsignal.max_threads hub in
  {
    counters = Striped.create n;
    hub;
    timeout_spins;
    suspect_after;
    backoff_cap;
    peers =
      Array.init n (fun _ ->
          {
            strikes = 0;
            hb_snap = 0;
            quarantined = false;
            backoff_rounds = 1;
            next_probe = 0;
          });
    rounds = Atomic.make 0;
    suspects = Atomic.make 0;
    quarantine_skips = Atomic.make 0;
  }

let ack t ~tid = Striped.incr t.counters tid

let get t tid = Striped.get t.counters tid

let suspected t tid = t.peers.(tid).quarantined

let suspect_count t = Atomic.get t.suspects

let quarantine_round_count t = Atomic.get t.quarantine_skips

(* [scratch.(tid)] holds the counter snapshot taken just before [tid]'s
   ping, or [skip] for threads the ping did not reach (self, dead slots,
   and threads that registered after the ping round — the latter cannot
   hold references to nodes retired before they existed, exactly like a
   thread created after a pthread_kill round, so they are excluded).
   The wait loop resets an entry to [skip] once it has resolved that
   peer (acked, left, or timed out). *)
let skip = -1

(* Minimum time, in seconds, between a round's pings and the return of
   any round that reports a timeout. A timeout tells the caller to read
   the peer's private reservation row racily in place of a publish, and
   the POP read path stores to that row without a fence: the store may
   still sit in the peer's store buffer while its validating load has
   already run. Every ping follows the caller's unlink, so a peer whose
   validation saw the unlinked pointer executed its reservation store
   before the ping; the stated timing assumption (DESIGN.md §4,
   per-thread layout rule) is that a plain store is visible to every
   core within a store-buffer drain, far below this window. *)
let settle_s = 50e-6

let lift_quarantine p =
  p.quarantined <- false;
  p.strikes <- 0;
  p.backoff_rounds <- 1

let note_timeout t ~round p ~hb =
  if p.quarantined then begin
    (* A due re-probe failed: back off exponentially before the next. *)
    p.hb_snap <- hb;
    p.backoff_rounds <- min t.backoff_cap (p.backoff_rounds * 2);
    p.next_probe <- round + p.backoff_rounds
  end
  else if p.strikes > 0 && hb = p.hb_snap then begin
    p.strikes <- p.strikes + 1;
    if p.strikes >= t.suspect_after then begin
      p.quarantined <- true;
      p.backoff_rounds <- 1;
      p.next_probe <- round + 1;
      Atomic.incr t.suspects
    end
  end
  else begin
    (* First timeout, or the heartbeat moved since the last one: the
       peer is polling, just slow to ack — restart the strike count. *)
    p.strikes <- 1;
    p.hb_snap <- hb
  end

let acked t tid snap = Striped.get t.counters tid > snap

let ping_and_wait t ~port ~scratch ~timed_out =
  let self = Softsignal.tid port in
  let n = Softsignal.max_threads t.hub in
  let round = Atomic.fetch_and_add t.rounds 1 in
  (* [timed_out.(tid)] starts [true] for a quarantined suspect whose
     re-probe is not yet due: it is pinged but gets no spin budget, only
     the settle window, and is reported timed out unless it acks
     within it. *)
  let suspects = ref 0 in
  for tid = 0 to n - 1 do
    timed_out.(tid) <- false;
    if tid = self then scratch.(tid) <- skip
    else begin
      let p = t.peers.(tid) in
      if p.quarantined && not (Softsignal.is_active t.hub tid) then
        (* The suspect deregistered (or crashed and was reaped): a dead
           slot holds nothing, same as the normal dead-slot skip. *)
        scratch.(tid) <- skip
      else begin
        if p.quarantined then
          if Softsignal.heartbeat t.hub tid <> p.hb_snap then
            (* Heartbeat moved: the occupant is polling again (or the
               slot was re-registered). Lift the quarantine and ping
               normally. *)
            lift_quarantine p
          else if round < p.next_probe then begin
            timed_out.(tid) <- true;
            incr suspects
          end;
        (* Snapshot before pinging (COLLECTPUBLISHEDCOUNTERS before
           PINGALLTOPUBLISH): an ack after the ping is then provably a
           publish that completed after this round began. A due re-probe
           of a suspect gets the full spin budget like any other peer. *)
        let snap = Striped.get t.counters tid in
        scratch.(tid) <- (if Softsignal.ping t.hub tid then snap else skip)
      end
    end
  done;
  let pinged_at = Clock.now () in
  let timeouts = ref 0 in
  let b = Backoff.make () in
  for tid = 0 to n - 1 do
    if scratch.(tid) <> skip && not timed_out.(tid) then begin
      Backoff.reset b;
      let spins = ref 0 in
      while
        Softsignal.is_active t.hub tid
        && (not (acked t tid scratch.(tid)))
        && !spins < t.timeout_spins
      do
        (* Serve pings aimed at us while we wait, or two concurrent
           reclaimers deadlock waiting for each other's publish. *)
        Softsignal.poll port;
        Backoff.once b;
        incr spins
      done;
      (* A POSIX signal cannot be ignored, so the paper's wait always
         terminates; a soft-signal peer that never polls would wedge us
         forever. After the spin budget we give up on its publish: the
         caller must then treat everything that peer might hold as
         reserved (its racily-readable reservation rows and/or its
         announced epoch) instead of relying on a fresh publish. *)
      if
        !spins >= t.timeout_spins
        && Softsignal.is_active t.hub tid
        && not (acked t tid scratch.(tid))
      then begin
        timed_out.(tid) <- true;
        incr timeouts;
        note_timeout t ~round t.peers.(tid) ~hb:(Softsignal.heartbeat t.hub tid)
      end
      else begin
        let p = t.peers.(tid) in
        if p.quarantined || p.strikes > 0 then lift_quarantine p
      end;
      scratch.(tid) <- skip
    end
  done;
  (* No timeout is reported before the settle window has passed since
     the pings; the full spin budget normally outlasts it already. *)
  if !timeouts + !suspects > 0 then
    while Clock.elapsed pinged_at < settle_s do
      Softsignal.poll port;
      Domain.cpu_relax ()
    done;
  (* Only suspects are still awaited: the loop above resolved every
     other peer to [skip]. One that acked or left is cleared. *)
  if !suspects > 0 then
    for tid = 0 to n - 1 do
      if scratch.(tid) <> skip then
        if Softsignal.is_active t.hub tid && not (acked t tid scratch.(tid)) then begin
          incr timeouts;
          Atomic.incr t.quarantine_skips
        end
        else begin
          timed_out.(tid) <- false;
          lift_quarantine t.peers.(tid)
        end
    done;
  !timeouts
