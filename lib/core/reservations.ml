open Pop_runtime

type t = {
  nslots : int;
  none : int;
  local : int array; (* Padded_rows table, one row per thread; plain stores *)
  shared : int Atomic.t array array; (* SWMR atomic cells *)
}

let create ~max_threads ~slots ~none =
  {
    nslots = slots;
    none;
    local = Padded_rows.make ~rows:max_threads ~width:slots none;
    shared =
      Array.init max_threads (fun _ -> Array.init slots (fun _ -> Atomic.make none));
  }

let slots t = t.nslots

let none t = t.none

let base t tid = Padded_rows.base ~width:t.nslots tid

let set_local t ~tid ~slot v = t.local.(base t tid + slot) <- v

let local_row t ~tid = (t.local, base t tid)

let shared_row t ~tid = t.shared.(tid)

let get_local t ~tid ~slot = t.local.(base t tid + slot)

let clear_local t ~tid = Array.fill t.local (base t tid) t.nslots t.none

let publish t ~tid =
  let b = base t tid and out = t.shared.(tid) in
  for i = 0 to t.nslots - 1 do
    Atomic.set out.(i) t.local.(b + i)
  done

let set_shared t ~tid ~slot v = Atomic.set t.shared.(tid).(slot) v

let get_shared t ~tid ~slot = Atomic.get t.shared.(tid).(slot)

let clear_shared t ~tid =
  let out = t.shared.(tid) in
  for i = 0 to t.nslots - 1 do
    Atomic.set out.(i) t.none
  done

let collect_shared t scratch =
  let k = ref 0 in
  for tid = 0 to Array.length t.shared - 1 do
    let row = t.shared.(tid) in
    for i = 0 to t.nslots - 1 do
      scratch.(!k) <- Atomic.get row.(i);
      incr k
    done
  done;
  !k

let append_local_row t ~tid ~into ~pos =
  let b = base t tid in
  for i = 0 to t.nslots - 1 do
    into.(pos + i) <- t.local.(b + i)
  done;
  pos + t.nslots

let collect_local t scratch =
  let k = ref 0 in
  for tid = 0 to Array.length t.shared - 1 do
    k := append_local_row t ~tid ~into:scratch ~pos:!k
  done;
  !k
