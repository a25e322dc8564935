type t = {
  mutable active : int array;
  mutable n_active : int;
  mutable next : int array;
  mutable n_next : int;
  dirty : bool array;
  dense : int;
}

let create ~active ~universe ~dense =
  let n = Array.length active in
  {
    active;
    n_active = n;
    next = Array.make (max 1 n) 0;
    n_next = 0;
    dirty = Array.make (max 1 universe) false;
    dense;
  }

let[@inline] mark f v =
  if not (Array.unsafe_get f.dirty v) then begin
    Array.unsafe_set f.dirty v true;
    Array.unsafe_set f.next f.n_next v;
    f.n_next <- f.n_next + 1
  end

(* The marking order is jumbled; for a dense next set that order wrecks
   cache locality in the following compute phase, so rebuild it
   ascending from the bitmap (the O(universe) scan is negligible when
   the set is a constant fraction of it). Sparse sets keep the marking
   order — a full scan per round would erase the active-set savings. *)
let advance f =
  let dirty = f.dirty and next = f.next in
  if f.n_next * 8 >= f.dense then begin
    f.n_next <- 0;
    for v = 0 to Array.length dirty - 1 do
      if Array.unsafe_get dirty v then begin
        Array.unsafe_set dirty v false;
        Array.unsafe_set next f.n_next v;
        f.n_next <- f.n_next + 1
      end
    done
  end
  else
    for i = 0 to f.n_next - 1 do
      Array.unsafe_set dirty (Array.unsafe_get next i) false
    done;
  f.next <- f.active;
  f.active <- next;
  f.n_active <- f.n_next;
  f.n_next <- 0
