(* A raw scheme with a span around every call a data structure makes
   into it. [Pop_ds.<Ds>.Make (Pop_core.Smr_typed.Of (Make (Raw)))] runs
   the same structure and scheme code as the untraced set, with the
   clock pairs added at the layer boundary and nothing changed below
   it. Spans go to [Span.bufs.(tid)] of the registering thread. *)

module Make (Raw : Pop_core.Smr.S) : Pop_core.Smr.S = struct
  let name = Raw.name

  type 'a t = 'a Raw.t

  type 'a tctx = { raw : 'a Raw.tctx; buf : Span.buf }

  let create = Raw.create

  let register t ~tid = { raw = Raw.register t ~tid; buf = Span.bufs.(tid) }

  let start_op c =
    let t0 = Span.now () in
    Raw.start_op c.raw;
    Span.leaf c.buf Span.start_op t0 (Span.now ())

  let end_op c =
    let t0 = Span.now () in
    Raw.end_op c.raw;
    Span.leaf c.buf Span.end_op t0 (Span.now ())

  let read c slot cell proj =
    let t0 = Span.now () in
    let v = Raw.read c.raw slot cell proj in
    Span.leaf c.buf Span.read t0 (Span.now ());
    v

  let check c n =
    let t0 = Span.now () in
    Raw.check c.raw n;
    Span.leaf c.buf Span.check t0 (Span.now ())

  let alloc c =
    let t0 = Span.now () in
    let n = Raw.alloc c.raw in
    Span.leaf c.buf Span.alloc t0 (Span.now ());
    n

  let retire c n =
    let t0 = Span.now () in
    Raw.retire c.raw n;
    Span.leaf c.buf Span.retire t0 (Span.now ())

  let free_unpublished c n =
    let t0 = Span.now () in
    Raw.free_unpublished c.raw n;
    Span.leaf c.buf Span.free_unpublished t0 (Span.now ())

  let poll c =
    let t0 = Span.now () in
    Raw.poll c.raw;
    Span.leaf c.buf Span.poll t0 (Span.now ())

  let enter_write_phase c nodes = Raw.enter_write_phase c.raw nodes

  let flush c = Raw.flush c.raw

  let deregister c = Raw.deregister c.raw

  let unreclaimed = Raw.unreclaimed

  let stats = Raw.stats
end
