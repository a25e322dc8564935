(* Tests for the observability layer: Json parse/print round-trips, Span
   trees and ambient-context semantics, the two cost-stream bridges, and
   the report schema of the full Theorem 12 / Theorem 15 pipelines. *)

module Gen = Tl_graph.Gen
module Graph = Tl_graph.Graph
module Ids = Tl_local.Ids
module Round_cost = Tl_local.Round_cost
module Pipeline = Tl_core.Pipeline
module Json = Tl_obs.Json
module Span = Tl_obs.Span
module Report = Tl_obs.Report

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* ---------- Json ---------- *)

let test_json_parse_basics () =
  let open Json in
  check "null" true (parse "null" = Null);
  check "true" true (parse " true " = Bool true);
  check "num" true (parse "-12.5e1" = Num (-125.));
  check "str" true (parse {|"a\"b\né"|} = Str "a\"b\n\xc3\xa9");
  check "arr" true (parse "[1, 2 ,3]" = Arr [ Num 1.; Num 2.; Num 3. ]);
  check "obj" true
    (parse {|{"a":1,"b":[true,null]}|}
    = Obj [ ("a", Num 1.); ("b", Arr [ Bool true; Null ]) ])

let test_json_errors () =
  let bad s =
    match Json.parse s with
    | exception Json.Parse_error _ -> true
    | _ -> false
  in
  check "empty" true (bad "");
  check "trailing garbage" true (bad "1 2");
  check "bare word" true (bad "nul");
  check "unterminated string" true (bad {|"abc|});
  check "unterminated array" true (bad "[1,2");
  check "missing colon" true (bad {|{"a" 1}|})

let test_json_nonfinite_prints_null () =
  (* nan/inf used to print as "nan"/"inf" — tokens no JSON parser
     accepts, so a single bad metric poisoned a whole report file *)
  check "nan" true (Json.to_string (Json.Num Float.nan) = "null");
  check "inf" true (Json.to_string (Json.Num Float.infinity) = "null");
  check "-inf" true (Json.to_string (Json.Num Float.neg_infinity) = "null");
  let s = Json.to_string (Json.Obj [ ("x", Json.Num (0. /. 0.)) ]) in
  check "nested" true (s = {|{"x":null}|});
  check "reparses" true (Json.parse s = Json.Obj [ ("x", Json.Null) ])

let test_json_unicode_escapes () =
  let bad s =
    match Json.parse s with
    | exception Json.Parse_error _ -> true
    | _ -> false
  in
  check "bmp escape" true (Json.parse {|"A\u00e9"|} = Json.Str "A\xc3\xa9");
  (* \ud83d\ude00 is the surrogate pair for U+1F600 (the emoji) *)
  check "surrogate pair" true
    (Json.parse {|"\ud83d\ude00"|} = Json.Str "\xf0\x9f\x98\x80");
  check "lone high surrogate" true (bad {|"\ud800"|});
  check "lone high then text" true (bad {|"\ud800x"|});
  check "lone low surrogate" true (bad {|"\udfff"|});
  check "high then non-low" true (bad {|"\ud83dA"|});
  check "bad hex digit" true (bad {|"\u12g4"|});
  check "underscore not hex" true (bad {|"\u1_23"|});
  check "truncated" true (bad {|"\ud8|})

let test_json_accessors () =
  let j = Json.parse {|{"n":3,"x":1.5,"s":"hi","l":[0],"o":{}}|} in
  check "member hit" true (Json.member "n" j <> None);
  check "member miss" true (Json.member "zz" j = None);
  check "member non-obj" true (Json.member "a" (Json.Arr []) = None);
  check "to_int integral" true
    (Option.bind (Json.member "n" j) Json.to_int = Some 3);
  check "to_int non-integral" true
    (Option.bind (Json.member "x" j) Json.to_int = None);
  check "to_float" true
    (Option.bind (Json.member "x" j) Json.to_float = Some 1.5);
  check "to_str" true (Option.bind (Json.member "s" j) Json.to_str = Some "hi");
  check "to_list" true
    (Option.bind (Json.member "l" j) Json.to_list = Some [ Json.Num 0. ]);
  check "to_assoc" true
    (Option.bind (Json.member "o" j) Json.to_assoc = Some [])

(* qcheck generator for arbitrary Json values *)
let json_gen =
  let open QCheck2.Gen in
  let str_g = string_size ~gen:(char_range 'a' 'z') (int_range 0 6) in
  let num_g =
    oneof
      [
        map float_of_int (int_range (-1000000) 1000000);
        map (fun f -> Float.of_int (Float.to_int (f *. 1e6)) /. 1e6) float;
      ]
  in
  sized
  @@ fix (fun self n ->
         if n <= 0 then
           oneof
             [
               return Json.Null;
               map (fun b -> Json.Bool b) bool;
               map (fun f -> Json.Num f) num_g;
               map (fun s -> Json.Str s) str_g;
             ]
         else
           oneof
             [
               map (fun l -> Json.Arr l) (list_size (int_range 0 4) (self (n / 2)));
               map
                 (fun l -> Json.Obj l)
                 (list_size (int_range 0 4) (pair str_g (self (n / 2))));
             ])

let prop_json_roundtrip =
  QCheck2.Test.make ~name:"parse (to_string v) = v" ~count:300 json_gen
    (fun v ->
      (* duplicate object keys would not round-trip through member order;
         the generator can produce them, so compare via to_string *)
      let s = Json.to_string v in
      Json.to_string (Json.parse s) = s)

(* ---------- ndjson ---------- *)

let test_ndjson_basics () =
  let check = Alcotest.(check bool) in
  (* to_line is exactly one line: compact value + newline *)
  Alcotest.(check string)
    "to_line" "{\"a\":1}\n"
    (Json.to_line (Json.Obj [ ("a", Json.Num 1.) ]));
  let r = Json.Ndjson.reader () in
  Json.Ndjson.feed r "{\"a\":";
  check "value incomplete" true (Json.Ndjson.next r = None);
  Json.Ndjson.feed r "1}\r\n\n  \ntrue\n[1,";
  check "first value" true
    (Json.Ndjson.next r = Some (Json.Obj [ ("a", Json.Num 1.) ]));
  check "blank lines skipped" true (Json.Ndjson.next r = Some (Json.Bool true));
  check "partial tail buffered" true (Json.Ndjson.next r = None);
  Alcotest.(check string) "pending" "[1," (Json.Ndjson.pending r);
  Json.Ndjson.feed r "2]\n";
  check "completed tail" true
    (Json.Ndjson.next r = Some (Json.Arr [ Json.Num 1.; Json.Num 2. ]));
  check "drained" true (Json.Ndjson.next r = None)

let test_ndjson_parse_error () =
  let r = Json.Ndjson.reader () in
  Json.Ndjson.feed r "{oops}\n{\"ok\":true}\n";
  (match Json.Ndjson.next r with
  | exception Json.Parse_error _ -> ()
  | _ -> Alcotest.fail "malformed line must raise Parse_error");
  (* the bad line is consumed; the stream continues *)
  Alcotest.(check bool)
    "stream continues after error" true
    (Json.Ndjson.next r = Some (Json.Obj [ ("ok", Json.Bool true) ]))

(* A bounded reader reports an over-long line once — before its newline
   arrives — drops it up to the newline, and keeps framing after it; a
   complete over-long line fed in one chunk is reported the same way. *)
let test_ndjson_max_line () =
  let module N = Json.Ndjson in
  let check = Alcotest.(check bool) in
  let r = N.reader ~max_line:8 () in
  N.feed r "{\"a\":1}\n0123456789";
  check "short line passes" true (N.next_line r = Some (N.Line "{\"a\":1}"));
  check "over-long partial reported" true (N.next_line r = Some N.Too_long);
  N.feed r "abcdef";
  check "reported once" true (N.next_line r = None);
  Alcotest.(check string) "dropped, not buffered" "" (N.pending r);
  N.feed r "xyz\n[1]\n0123456789abc\n2\n";
  check "framing resumes" true (N.next_line r = Some (N.Line "[1]"));
  check "complete over-long line" true (N.next_line r = Some N.Too_long);
  check "next line intact" true (N.next r = Some (Json.Num 2.));
  check "drained" true (N.next_line r = None)

let test_read_ndjson () =
  Alcotest.(check bool)
    "unterminated last line" true
    (Json.read_ndjson "1\n2" = [ Json.Num 1.; Json.Num 2. ]);
  Alcotest.(check bool) "empty" true (Json.read_ndjson "" = []);
  Alcotest.(check bool) "blank" true (Json.read_ndjson " \n\t\n" = [])

(* emit a stream of values with to_line, read it back value by value —
   in one gulp and through arbitrary chunkings of the same bytes *)
let prop_ndjson_roundtrip =
  QCheck2.Test.make ~name:"ndjson stream round-trip" ~count:200
    QCheck2.Gen.(
      pair
        (list_size (int_range 0 8) json_gen)
        (small_list (int_range 1 7)))
    (fun (vs, chunks) ->
      let stream = String.concat "" (List.map Json.to_line vs) in
      let expect = List.map Json.to_string vs in
      let got_bulk = List.map Json.to_string (Json.read_ndjson stream) in
      let r = Json.Ndjson.reader () in
      let len = String.length stream in
      let pos = ref 0 and sizes = ref chunks and got = ref [] in
      while !pos < len do
        let sz =
          match !sizes with
          | [] -> len - !pos
          | s :: rest ->
            sizes := rest;
            min s (len - !pos)
        in
        Json.Ndjson.feed r ~pos:!pos ~len:sz stream;
        pos := !pos + sz;
        let rec drain () =
          match Json.Ndjson.next r with
          | None -> ()
          | Some v ->
            got := Json.to_string v :: !got;
            drain ()
        in
        drain ()
      done;
      got_bulk = expect && List.rev !got = expect)

(* ---------- Span ---------- *)

let test_span_inactive_noops () =
  check "inactive" true (not (Span.active ()));
  check "no current" true (Span.current () = None);
  (* recording ops must be silent no-ops *)
  Span.set_attr "k" "v";
  Span.add_counter "c" 1;
  Span.add_rounds ~phase:"p" 3;
  let r = Span.with_span "ghost" (fun () -> 41 + 1) in
  check_int "passthrough result" 42 r;
  check "still inactive" true (not (Span.active ()))

let test_span_tree_structure () =
  let result, root =
    Span.run "root" ~attrs:[ ("mode", "test") ] (fun () ->
        Span.with_span "a" (fun () ->
            Span.add_rounds ~phase:"x" 5;
            Span.with_span "a1" (fun () -> Span.add_rounds ~phase:"y" 2));
        Span.with_span "b" (fun () -> Span.add_counter "hits" 7);
        "done")
  in
  check_str "result" "done" result;
  check "finished root" true (not (Span.active ()));
  check_str "root name" "root" (Span.name root);
  check "elapsed stamped" true (Span.elapsed_s root >= 0.);
  check "attrs kept" true (Span.attrs root = [ ("mode", "test") ]);
  let kids = Span.children root in
  check_int "two children" 2 (List.length kids);
  let a = List.nth kids 0 and b = List.nth kids 1 in
  check_str "child order a" "a" (Span.name a);
  check_str "child order b" "b" (Span.name b);
  check_int "a rounds_self" 5 (Span.rounds_self a);
  check_int "a rounds_total (with a1)" 7 (Span.rounds_total a);
  check_int "root rounds_total" 7 (Span.rounds_total root);
  check_int "root rounds_self" 0 (Span.rounds_self root);
  check "b counter" true (Span.counters b = [ ("hits", 7) ])

let test_span_exception_safety () =
  (match Span.run "root" (fun () -> Span.with_span "boom" (fun () -> failwith "x")) with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "expected Failure");
  check "stack unwound" true (not (Span.active ()))

let test_span_install_root () =
  let root = Span.create "manual" in
  Span.install_root root;
  check "ambient" true (Span.active ());
  (match Span.install_root (Span.create "second") with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "expected Invalid_argument on double install");
  Span.with_span "child" (fun () -> Span.add_rounds ~phase:"p" 4);
  Span.finish root;
  check "closed" true (not (Span.active ()));
  check_int "rounds flowed" 4 (Span.rounds_total root);
  let e1 = Span.elapsed_s root in
  Span.finish root;
  check "idempotent finish" true (Span.elapsed_s root = e1)

let test_round_cost_bridge () =
  (* every ledger charge must land on the current span's phase rounds *)
  let (), root =
    Span.run "root" (fun () ->
        let c = Round_cost.create () in
        Span.with_span "decompose" (fun () ->
            Round_cost.charge c "decompose" 6);
        Span.with_span "base" (fun () -> Round_cost.charge c "base:A" 62);
        check_int "ledger total" 68 (Round_cost.total c))
  in
  check_int "span total matches ledger" 68 (Span.rounds_total root);
  let kids = Span.children root in
  check_int "decompose span rounds" 6 (Span.rounds_self (List.nth kids 0));
  check_int "base span rounds" 62 (Span.rounds_self (List.nth kids 1))

let test_add_trace () =
  let tr = Tl_engine.Trace.create ~label:"kern" () in
  Tl_engine.Trace.set_meta tr ~mode:"seq" ~scheduling:"active-set" ~n_base:10
    ~n_present:10;
  Tl_engine.Trace.record tr
    { round = 1; active = 10; changed = 3; unhalted = -1; wall_s = 0.001 };
  Tl_engine.Trace.finish tr ~total_s:0.002;
  let (), root = Span.run "root" (fun () -> Span.add_trace tr) in
  match Span.children root with
  | [ child ] ->
    check_str "engine child name" "engine:kern" (Span.name child);
    check "mode attr" true (List.assoc "mode" (Span.attrs child) = "seq");
    check_int "rounds counter" 1 (List.assoc "rounds" (Span.counters child));
    check_int "steps counter" 10 (List.assoc "steps" (Span.counters child));
    check "elapsed = total_s" true (Span.elapsed_s child = 0.002);
    (* measured engine rounds are counters, not LOCAL round charges *)
    check_int "no LOCAL rounds" 0 (Span.rounds_total root)
  | _ -> Alcotest.fail "expected exactly one engine child"

(* ---------- Report ---------- *)

let sample_tree () =
  let (), root =
    Span.run "solve" ~attrs:[ ("problem", "mis") ] (fun () ->
        Span.with_span "decompose" (fun () -> Span.add_rounds ~phase:"d" 6);
        Span.with_span "base" (fun () ->
            Span.add_counter "steps" 100;
            Span.add_rounds ~phase:"b" 62);
        Span.with_span "base" (fun () -> ()))
  in
  root

let test_report_json_schema () =
  let root = sample_tree () in
  let j = Json.parse (Report.json_string root) in
  check "schema version" true
    (Option.bind (Json.member "tl_obs_report" j) Json.to_int
    = Some Report.schema_version);
  let span = Option.get (Json.member "span" j) in
  check "name" true
    (Option.bind (Json.member "name" span) Json.to_str = Some "solve");
  check "elapsed present" true
    (Option.bind (Json.member "elapsed_s" span) Json.to_float <> None);
  check "attrs object" true
    (Option.bind (Json.member "attrs" span) Json.to_assoc
    = Some [ ("problem", Json.Str "mis") ]);
  check "rounds_total" true
    (Option.bind (Json.member "rounds_total" span) Json.to_int = Some 68);
  let children =
    Option.get (Option.bind (Json.member "children" span) Json.to_list)
  in
  check_int "three children" 3 (List.length children);
  let base = List.nth children 1 in
  check "child counters" true
    (Option.bind (Json.member "counters" base) Json.to_assoc
    = Some [ ("steps", Json.Num 100.) ]);
  check "child rounds map" true
    (Option.bind (Json.member "rounds" base) Json.to_assoc
    = Some [ ("b", Json.Num 62.) ])

let test_report_flatten_and_csv () =
  let root = sample_tree () in
  let paths = List.map fst (Report.flatten root) in
  check "paths" true
    (paths = [ "solve"; "solve/decompose"; "solve/base"; "solve/base#1" ]);
  let csv = Report.to_csv root in
  let lines = String.split_on_char '\n' (String.trim csv) in
  check_str "csv header" "path,depth,elapsed_s,rounds_self,rounds_total,attrs"
    (List.hd lines);
  check_int "csv rows" 5 (List.length lines);
  (* root row carries its attrs as ;-joined k=v pairs in the last field *)
  let root_row = List.nth lines 1 in
  check "root attrs column" true
    (String.length root_row >= 11
    && String.sub root_row (String.length root_row - 11) 11 = "problem=mis")

(* RFC 4180: span names and attr values containing the separator, a
   quote or a newline must come back quoted with inner quotes doubled —
   a raw comma in a span name used to shift every later column. *)
let test_report_csv_escaping () =
  let _, root =
    Span.run "solve, \"quoted\""
      ~attrs:[ ("note", "a,b"); ("quote", "say \"hi\""); ("nl", "x\ny") ]
      (fun () -> Span.with_span "plain" (fun () -> ()))
  in
  let csv = Report.to_csv root in
  let lines = String.split_on_char '\n' (String.trim csv) in
  (* the embedded newline in an attr value is quoted, not a row break:
     header + 2 spans + 1 continuation line of the quoted field *)
  check_int "csv physical lines" 4 (List.length lines);
  let row = List.nth lines 1 in
  check "path field quoted" true
    (String.length row > 0 && row.[0] = '"');
  let prefix = "\"solve, \"\"quoted\"\"\"," in
  check "quotes doubled in path" true
    (String.length row >= String.length prefix
    && String.sub row 0 (String.length prefix) = prefix);
  let attrs_field = {|"note=a,b;quote=say ""hi"";nl=x|} in
  check "attrs field quoted and escaped" true
    (let alen = String.length attrs_field and rlen = String.length row in
     rlen >= alen && String.sub row (rlen - alen) alen = attrs_field);
  check_str "quoted newline continuation" "y\"" (List.nth lines 2);
  (* a clean tree keeps bare, unquoted fields *)
  let _, clean = Span.run "ok" ~attrs:[ ("k", "v") ] (fun () -> ()) in
  let clean_row = List.nth (String.split_on_char '\n' (Report.to_csv clean)) 1 in
  check "no spurious quoting" true
    (not (String.contains clean_row '"'))

(* ---------- Pipeline phase schemas (acceptance criterion) ---------- *)

let child_names root =
  List.map Span.name (Span.children root)

let find_child root name =
  List.find (fun s -> Span.name s = name) (Span.children root)

let test_theorem1_report_phases () =
  (* Theorem 12 (MIS on a tree): the span tree must expose the
     decompose / base / gather-solve phase breakdown and its rounds must
     agree with the Round_cost ledger. *)
  let tree = Gen.random_tree ~n:400 ~seed:60 in
  let ids = Ids.permuted ~n:400 ~seed:61 in
  let r, root =
    Span.run "solve" (fun () -> Pipeline.mis_on_tree ~tree ~ids ())
  in
  check "valid run" true r.Pipeline.valid;
  let names = child_names root in
  List.iter
    (fun phase ->
      check (phase ^ " span present") true (List.mem phase names))
    [ "decompose"; "base"; "gather-solve"; "validate" ];
  check_int "span rounds = ledger rounds" r.Pipeline.total_rounds
    (Span.rounds_total root);
  check_int "decompose rounds" (Round_cost.get r.Pipeline.cost "decompose")
    (Span.rounds_total (find_child root "decompose"));
  check_int "base rounds"
    (Round_cost.get r.Pipeline.cost "base:A(T_C)")
    (Span.rounds_total (find_child root "base"));
  check_int "gather rounds"
    (Round_cost.get r.Pipeline.cost "gather-solve")
    (Span.rounds_total (find_child root "gather-solve"));
  (* round-trip through the serialized report *)
  let j = Json.parse (Report.json_string root) in
  let span = Option.get (Json.member "span" j) in
  check "report rounds_total" true
    (Option.bind (Json.member "rounds_total" span) Json.to_int
    = Some r.Pipeline.total_rounds)

let test_theorem2_report_phases () =
  (* Theorem 15 (matching on a bounded-arboricity union): phases
     decompose / forest-coloring / base / stars. *)
  let graph = Gen.forest_union ~n:300 ~arboricity:2 ~seed:63 in
  let ids = Ids.permuted ~n:300 ~seed:65 in
  let r, root =
    Span.run "solve" (fun () -> Pipeline.matching_on_graph ~graph ~a:2 ~ids ())
  in
  check "valid run" true r.Pipeline.valid;
  let names = child_names root in
  List.iter
    (fun phase ->
      check (phase ^ " span present") true (List.mem phase names))
    [ "decompose"; "forest-coloring"; "base"; "stars"; "validate" ];
  check_int "span rounds = ledger rounds" r.Pipeline.total_rounds
    (Span.rounds_total root);
  check_int "stars rounds"
    (Round_cost.get r.Pipeline.cost "gather-solve(stars)")
    (Span.rounds_total (find_child root "stars"));
  (* the decompose span nests the arb-decompose sub-spans *)
  let dec = find_child root "decompose" in
  let sub = List.concat_map Span.children (Span.children dec) in
  check "cv3-forests nested under decompose" true
    (List.exists (fun s -> Span.name s = "cv3-forests") sub
    || List.exists
         (fun s -> Span.name s = "cv3-forests")
         (List.concat_map Span.children sub))

let () =
  Alcotest.run "tl_obs"
    [
      ( "json",
        [
          Alcotest.test_case "parse basics" `Quick test_json_parse_basics;
          Alcotest.test_case "parse errors" `Quick test_json_errors;
          Alcotest.test_case "non-finite prints null" `Quick
            test_json_nonfinite_prints_null;
          Alcotest.test_case "unicode escapes" `Quick
            test_json_unicode_escapes;
          Alcotest.test_case "accessors" `Quick test_json_accessors;
          QCheck_alcotest.to_alcotest prop_json_roundtrip;
        ] );
      ( "ndjson",
        [
          Alcotest.test_case "incremental reader" `Quick test_ndjson_basics;
          Alcotest.test_case "parse error recovery" `Quick
            test_ndjson_parse_error;
          Alcotest.test_case "read_ndjson" `Quick test_read_ndjson;
          Alcotest.test_case "max_line bound" `Quick test_ndjson_max_line;
          QCheck_alcotest.to_alcotest prop_ndjson_roundtrip;
        ] );
      ( "span",
        [
          Alcotest.test_case "inactive no-ops" `Quick test_span_inactive_noops;
          Alcotest.test_case "tree structure" `Quick test_span_tree_structure;
          Alcotest.test_case "exception safety" `Quick
            test_span_exception_safety;
          Alcotest.test_case "install_root" `Quick test_span_install_root;
          Alcotest.test_case "round_cost bridge" `Quick test_round_cost_bridge;
          Alcotest.test_case "add_trace" `Quick test_add_trace;
        ] );
      ( "report",
        [
          Alcotest.test_case "json schema" `Quick test_report_json_schema;
          Alcotest.test_case "flatten + csv" `Quick
            test_report_flatten_and_csv;
          Alcotest.test_case "csv rfc-4180 escaping" `Quick
            test_report_csv_escaping;
        ] );
      ( "pipeline-phases",
        [
          Alcotest.test_case "theorem1 report" `Quick
            test_theorem1_report_phases;
          Alcotest.test_case "theorem2 report" `Quick
            test_theorem2_report_phases;
        ] );
    ]
