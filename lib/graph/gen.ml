module Prng = struct
  type t = { mutable state : int64 }

  let create seed = { state = Int64.of_int seed }

  (* splitmix64: fast, high-quality, trivially seedable. *)
  let bits64 t =
    t.state <- Int64.add t.state 0x9E3779B97F4A7C15L;
    let z = t.state in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
    Int64.logxor z (Int64.shift_right_logical z 31)

  let int t bound =
    if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
    let mask = Int64.shift_right_logical (bits64 t) 1 in
    Int64.to_int (Int64.rem mask (Int64.of_int bound))

  let float t =
    let mask = Int64.shift_right_logical (bits64 t) 11 in
    Int64.to_float mask /. 9007199254740992.0

  let shuffle t a =
    for i = Array.length a - 1 downto 1 do
      let j = int t (i + 1) in
      let tmp = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- tmp
    done
end

let path n =
  if n < 1 then invalid_arg "Gen.path";
  Graph.of_edges ~n (List.init (n - 1) (fun i -> (i, i + 1)))

let cycle n =
  if n < 3 then invalid_arg "Gen.cycle";
  Graph.of_edges ~n ((n - 1, 0) :: List.init (n - 1) (fun i -> (i, i + 1)))

let star n =
  if n < 1 then invalid_arg "Gen.star";
  Graph.of_edges ~n (List.init (n - 1) (fun i -> (0, i + 1)))

let double_star a b =
  let n = a + b + 2 in
  let left = List.init a (fun i -> (0, 2 + i)) in
  let right = List.init b (fun i -> (1, 2 + a + i)) in
  Graph.of_edges ~n ((0, 1) :: (left @ right))

let complete n =
  let edges = ref [] in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      edges := (u, v) :: !edges
    done
  done;
  Graph.of_edges ~n !edges

let kary_tree ~arity ~depth =
  if arity < 1 || depth < 0 then invalid_arg "Gen.kary_tree";
  (* nodes numbered breadth-first; children of i are arity*i+1 .. arity*i+arity *)
  let rec layer_size d = if d = 0 then 1 else arity * layer_size (d - 1) in
  let n = ref 0 in
  for d = 0 to depth do
    n := !n + layer_size d
  done;
  let n = !n in
  let edges = ref [] in
  for v = 1 to n - 1 do
    edges := ((v - 1) / arity, v) :: !edges
  done;
  Graph.of_edges ~n !edges

let balanced_regular_tree ~delta ~n =
  if delta < 2 then invalid_arg "Gen.balanced_regular_tree: delta < 2";
  if n < 1 then invalid_arg "Gen.balanced_regular_tree: n < 1";
  (* Breadth-first: root (node 0) gets up to [delta] children; every other
     node gets up to [delta - 1] children; stop at [n] nodes. *)
  let edges = ref [] in
  let next = ref 1 in
  let queue = Queue.create () in
  Queue.push 0 queue;
  while !next < n do
    let v = Queue.pop queue in
    let cap = if v = 0 then delta else delta - 1 in
    let children = min cap (n - !next) in
    for _ = 1 to children do
      edges := (v, !next) :: !edges;
      Queue.push !next queue;
      incr next
    done
  done;
  Graph.of_edges ~n !edges

let caterpillar ~spine ~legs =
  if spine < 1 || legs < 0 then invalid_arg "Gen.caterpillar";
  let n = spine + (spine * legs) in
  let spine_edges = List.init (spine - 1) (fun i -> (i, i + 1)) in
  let leg_edges = ref [] in
  for s = 0 to spine - 1 do
    for l = 0 to legs - 1 do
      leg_edges := (s, spine + (s * legs) + l) :: !leg_edges
    done
  done;
  Graph.of_edges ~n (spine_edges @ !leg_edges)

let spider ~legs ~leg_length =
  if legs < 0 || leg_length < 1 then invalid_arg "Gen.spider";
  let n = 1 + (legs * leg_length) in
  let edges = ref [] in
  for l = 0 to legs - 1 do
    let base = 1 + (l * leg_length) in
    edges := (0, base) :: !edges;
    for i = 0 to leg_length - 2 do
      edges := (base + i, base + i + 1) :: !edges
    done
  done;
  Graph.of_edges ~n !edges

let broom ~handle ~bristles =
  if handle < 1 || bristles < 0 then invalid_arg "Gen.broom";
  let n = handle + bristles in
  let h = List.init (handle - 1) (fun i -> (i, i + 1)) in
  let b = List.init bristles (fun i -> (handle - 1, handle + i)) in
  Graph.of_edges ~n (h @ b)

let grid rows cols =
  if rows < 1 || cols < 1 then invalid_arg "Gen.grid";
  let id r c = (r * cols) + c in
  let edges = ref [] in
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      if c + 1 < cols then edges := (id r c, id r (c + 1)) :: !edges;
      if r + 1 < rows then edges := (id r c, id (r + 1) c) :: !edges
    done
  done;
  Graph.of_edges ~n:(rows * cols) !edges

let triangulated_grid k =
  if k < 1 then invalid_arg "Gen.triangulated_grid";
  let id r c = (r * k) + c in
  let edges = ref [] in
  for r = 0 to k - 1 do
    for c = 0 to k - 1 do
      if c + 1 < k then edges := (id r c, id r (c + 1)) :: !edges;
      if r + 1 < k then edges := (id r c, id (r + 1) c) :: !edges;
      if c + 1 < k && r + 1 < k then edges := (id r c, id (r + 1) (c + 1)) :: !edges
    done
  done;
  Graph.of_edges ~n:(k * k) !edges

(* Pruefer sequence decoding in O(n log n) via counting + a pointer sweep. *)
let tree_of_pruefer seq =
  let n = Array.length seq + 2 in
  let count = Array.make n 0 in
  Array.iter (fun v -> count.(v) <- count.(v) + 1) seq;
  let edges = ref [] in
  (* leaf pointer sweep *)
  let ptr = ref 0 in
  let leaf = ref (-1) in
  let find_next_leaf () =
    while !ptr < n && count.(!ptr) > 0 do
      incr ptr
    done;
    leaf := !ptr
  in
  find_next_leaf ();
  let current_leaf = ref !leaf in
  Array.iter
    (fun v ->
      edges := (!current_leaf, v) :: !edges;
      count.(v) <- count.(v) - 1;
      if count.(v) = 0 && v < !ptr then current_leaf := v
      else begin
        incr ptr;
        find_next_leaf ();
        current_leaf := !leaf
      end)
    seq;
  (* final edge between the remaining leaf and node n-1 *)
  edges := (!current_leaf, n - 1) :: !edges;
  !edges

let random_tree ~n ~seed =
  if n < 1 then invalid_arg "Gen.random_tree";
  if n = 1 then Graph.empty 1
  else if n = 2 then Graph.of_edges ~n [ (0, 1) ]
  else begin
    let rng = Prng.create seed in
    let seq = Array.init (n - 2) (fun _ -> Prng.int rng n) in
    Graph.of_edges ~n (tree_of_pruefer seq)
  end

let random_forest ~n ~trees ~seed =
  if trees < 1 || trees > n then invalid_arg "Gen.random_forest";
  let rng = Prng.create seed in
  (* random tree, then delete trees-1 random edges *)
  let t = random_tree ~n ~seed:(seed lxor 0x5eed) in
  let edges = Array.of_list (Graph.edge_list t) in
  Prng.shuffle rng edges;
  let keep = Array.sub edges 0 (Array.length edges - (trees - 1)) in
  Graph.of_edges ~n (Array.to_list keep)

let union_of_trees ~n ~arboricity ~seed ~tree_gen =
  if arboricity < 1 then invalid_arg "Gen.union_of_trees";
  let seen = Hashtbl.create (n * arboricity) in
  let edges = ref [] in
  for i = 0 to arboricity - 1 do
    let t = tree_gen ~n ~seed:(seed + (i * 7919)) in
    List.iter
      (fun (u, v) ->
        let p = if u < v then (u, v) else (v, u) in
        if not (Hashtbl.mem seen p) then begin
          Hashtbl.add seen p ();
          edges := p :: !edges
        end)
      (Graph.edge_list t)
  done;
  Graph.of_edges ~n !edges

let forest_union ~n ~arboricity ~seed =
  union_of_trees ~n ~arboricity ~seed ~tree_gen:random_tree

let random_bounded_degree ~n ~max_degree ~edges ~seed =
  if n < 2 || max_degree < 1 || edges < 0 then
    invalid_arg "Gen.random_bounded_degree";
  let rng = Prng.create seed in
  let deg = Array.make n 0 in
  let seen = Hashtbl.create edges in
  let acc = ref [] in
  let added = ref 0 in
  let attempts = ref 0 in
  let max_attempts = 20 * (edges + 1) in
  while !added < edges && !attempts < max_attempts do
    incr attempts;
    let u = Prng.int rng n in
    let v = Prng.int rng n in
    if u <> v && deg.(u) < max_degree && deg.(v) < max_degree then begin
      let p = if u < v then (u, v) else (v, u) in
      if not (Hashtbl.mem seen p) then begin
        Hashtbl.add seen p ();
        acc := p :: !acc;
        deg.(u) <- deg.(u) + 1;
        deg.(v) <- deg.(v) + 1;
        incr added
      end
    end
  done;
  Graph.of_edges ~n !acc

let power_law_tree ~n ~seed =
  if n < 1 then invalid_arg "Gen.power_law_tree";
  if n = 1 then Graph.empty 1
  else begin
    let rng = Prng.create seed in
    (* endpoints array doubles as the degree-proportional sampling pool *)
    let pool = Array.make (2 * (n - 1)) 0 in
    let edges = ref [ (0, 1) ] in
    pool.(0) <- 0;
    pool.(1) <- 1;
    let filled = ref 2 in
    for v = 2 to n - 1 do
      let target = pool.(Prng.int rng !filled) in
      edges := (target, v) :: !edges;
      pool.(!filled) <- target;
      pool.(!filled + 1) <- v;
      filled := !filled + 2
    done;
    Graph.of_edges ~n !edges
  end

let power_law_union ~n ~arboricity ~seed =
  union_of_trees ~n ~arboricity ~seed ~tree_gen:power_law_tree

(* ---------- named families ---------- *)

let sqrt_n n = int_of_float (Float.sqrt (float_of_int n))

(* name -> build n seed a delta *)
let family_table =
  [
    ("random-tree", fun n seed _ _ -> random_tree ~n ~seed);
    ("balanced-tree", fun n _ _ delta -> balanced_regular_tree ~delta ~n);
    ("path", fun n _ _ _ -> path n);
    ("star", fun n _ _ _ -> star n);
    ("caterpillar", fun n _ _ _ -> caterpillar ~spine:(max 1 (n / 4)) ~legs:3);
    ("power-law", fun n seed _ _ -> power_law_tree ~n ~seed);
    ("forest-union", fun n seed a _ -> forest_union ~n ~arboricity:a ~seed);
    ("planar", fun n _ _ _ -> triangulated_grid (max 2 (sqrt_n n)));
    ("grid", fun n _ _ _ -> grid (max 1 (sqrt_n n)) (max 1 (sqrt_n n)));
  ]

let families = List.map fst family_table

let of_family family ~n ~seed ~a ~delta =
  match List.assoc_opt family family_table with
  | Some build -> build n seed a delta
  | None -> invalid_arg (Printf.sprintf "unknown family %s" family)
