let is_prime x =
  if x < 2 then false
  else begin
    let rec go d = if d * d > x then true else if x mod d = 0 then false else go (d + 1) in
    go 2
  end

let smallest_prime_geq x =
  let rec go p = if is_prime p then p else go (p + 1) in
  go (max 2 x)

(* Pick the cheapest usable parameters for one reduction step: the degree
   bound d >= 2 and the smallest prime q > Δ(d-1) such that q^d can encode
   the current palette. Larger d means lower-degree... no: polynomials have
   degree < d and d digits; growing d lets a smaller q encode the palette,
   at the price of more agreement points — the scan below finds the
   smallest resulting palette q². *)
let choose_parameters ~max_degree ~palette =
  let power_geq q d target =
    (* q^d >= target, overflow-safe for the sizes at hand *)
    let rec go acc i =
      if acc >= target then true else if i = 0 then false else go (acc * q) (i - 1)
    in
    go 1 d
  in
  let rec scan d best =
    if d > 64 then best
    else begin
      let q = smallest_prime_geq ((max_degree * (d - 1)) + 1) in
      let best =
        if power_geq q d palette then
          match best with
          | Some (qb, _) when qb <= q -> best
          | _ -> Some (q, d)
        else best
      in
      scan (d + 1) best
    end
  in
  match scan 2 None with
  | Some (q, d) -> (q, d)
  | None -> invalid_arg "Linial.choose_parameters: palette too large"

(* digits of c in base q, least significant first: the coefficients of the
   polynomial representing color c *)
let digits c q d =
  let coeffs = Array.make d 0 in
  let rec go c i =
    if i < d then begin
      coeffs.(i) <- c mod q;
      go (c / q) (i + 1)
    end
  in
  go c 0;
  coeffs

let eval_poly coeffs q x =
  (* Horner, mod q *)
  let acc = ref 0 in
  for i = Array.length coeffs - 1 downto 0 do
    acc := ((!acc * x) + coeffs.(i)) mod q
  done;
  !acc

let step ~neighbors ~nodes ~colors ~palette ~max_degree =
  let q, d = choose_parameters ~max_degree ~palette in
  let next = Array.copy colors in
  List.iter
    (fun v ->
      let own = digits colors.(v) q d in
      let neigh = List.map (fun u -> digits colors.(u) q d) (neighbors v) in
      let rec find_x x =
        if x >= q then
          (* cannot happen: at most Δ(d-1) < q bad points *)
          invalid_arg "Linial.step: no evaluation point (coloring not proper?)"
        else
          let mine = eval_poly own q x in
          if List.exists (fun c -> eval_poly c q x = mine) neigh then find_x (x + 1)
          else (x, mine)
      in
      let x, value = find_x 0 in
      next.(v) <- (x * q) + value)
    nodes;
  List.iter (fun v -> colors.(v) <- next.(v)) nodes;
  q * q

(* The (q, d) parameters of every reduction round are a function of the
   (globally known) initial palette alone, so the whole reduction is a
   fixed a-priori schedule — exactly what the engine's [run_rounds] wants. *)
let schedule ~palette ~max_degree =
  let rec go pal acc =
    let q, d = choose_parameters ~max_degree ~palette:pal in
    if q * q < pal then go (q * q) ((q, d) :: acc) else List.rev acc
  in
  Array.of_list (go palette [])

let reduce_topo_with ~compile_s ~compile_cached ~topo ~nodes ~colors ~palette
    ~max_degree =
  let sched = schedule ~palette ~max_degree in
  let n_rounds = Array.length sched in
  if n_rounds = 0 then (palette, 0)
  else begin
    let step ~round ~node:_ c ~neighbors =
      let q, d = sched.(round - 1) in
      let own = digits c q d in
      let neigh = List.map (fun (_, _, cu) -> digits cu q d) neighbors in
      let rec find_x x =
        if x >= q then
          invalid_arg "Linial.step: no evaluation point (coloring not proper?)"
        else
          let mine = eval_poly own q x in
          if List.exists (fun cf -> eval_poly cf q x = mine) neigh then
            find_x (x + 1)
          else (x, mine)
      in
      let x, value = find_x 0 in
      (x * q) + value
    in
    (* Round-number-driven schedule: must re-step every node each round. *)
    let o =
      Tl_engine.Engine.run_rounds ~label:"linial.color"
        ~sched:Tl_engine.Engine.Full_scan ~compile_s ~compile_cached ~topo
        ~init:(fun v -> colors.(v))
        ~step ~rounds:n_rounds ()
    in
    List.iter (fun v -> colors.(v) <- o.Tl_engine.Engine.states.(v)) nodes;
    let q_last, _ = sched.(n_rounds - 1) in
    (q_last * q_last, n_rounds)
  end

let reduce_topo =
  reduce_topo_with ~compile_s:0. ~compile_cached:false

let reduce ~neighbors ~nodes ~colors ~palette ~max_degree =
  let rounds = ref 0 in
  let current = ref palette in
  let continue_ = ref true in
  while !continue_ do
    let q, _d = choose_parameters ~max_degree ~palette:!current in
    if q * q < !current then begin
      current := step ~neighbors ~nodes ~colors ~palette:!current ~max_degree;
      incr rounds
    end
    else continue_ := false
  done;
  (!current, !rounds)
