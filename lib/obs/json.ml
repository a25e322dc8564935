type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string

let fail pos msg =
  raise (Parse_error (Printf.sprintf "%s at offset %d" msg pos))

(* ---------- parser ---------- *)

type cursor = { s : string; mutable pos : int }

let peek c = if c.pos < String.length c.s then Some c.s.[c.pos] else None

let skip_ws c =
  while
    c.pos < String.length c.s
    && match c.s.[c.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    c.pos <- c.pos + 1
  done

let expect c ch =
  match peek c with
  | Some x when x = ch -> c.pos <- c.pos + 1
  | _ -> fail c.pos (Printf.sprintf "expected %C" ch)

let literal c word value =
  let l = String.length word in
  if c.pos + l <= String.length c.s && String.sub c.s c.pos l = word then begin
    c.pos <- c.pos + l;
    value
  end
  else fail c.pos (Printf.sprintf "expected %s" word)

(* Encode a Unicode scalar value as UTF-8. *)
let add_utf8 b u =
  if u < 0x80 then Buffer.add_char b (Char.chr u)
  else if u < 0x800 then begin
    Buffer.add_char b (Char.chr (0xc0 lor (u lsr 6)));
    Buffer.add_char b (Char.chr (0x80 lor (u land 0x3f)))
  end
  else if u < 0x10000 then begin
    Buffer.add_char b (Char.chr (0xe0 lor (u lsr 12)));
    Buffer.add_char b (Char.chr (0x80 lor ((u lsr 6) land 0x3f)));
    Buffer.add_char b (Char.chr (0x80 lor (u land 0x3f)))
  end
  else begin
    Buffer.add_char b (Char.chr (0xf0 lor (u lsr 18)));
    Buffer.add_char b (Char.chr (0x80 lor ((u lsr 12) land 0x3f)));
    Buffer.add_char b (Char.chr (0x80 lor ((u lsr 6) land 0x3f)));
    Buffer.add_char b (Char.chr (0x80 lor (u land 0x3f)))
  end

let parse_string c =
  expect c '"';
  let b = Buffer.create 16 in
  let rec go () =
    if c.pos >= String.length c.s then fail c.pos "unterminated string"
    else
      match c.s.[c.pos] with
      | '"' -> c.pos <- c.pos + 1
      | '\\' ->
        c.pos <- c.pos + 1;
        (if c.pos >= String.length c.s then fail c.pos "unterminated escape"
         else
           match c.s.[c.pos] with
           | '"' -> Buffer.add_char b '"'; c.pos <- c.pos + 1
           | '\\' -> Buffer.add_char b '\\'; c.pos <- c.pos + 1
           | '/' -> Buffer.add_char b '/'; c.pos <- c.pos + 1
           | 'b' -> Buffer.add_char b '\b'; c.pos <- c.pos + 1
           | 'f' -> Buffer.add_char b '\012'; c.pos <- c.pos + 1
           | 'n' -> Buffer.add_char b '\n'; c.pos <- c.pos + 1
           | 'r' -> Buffer.add_char b '\r'; c.pos <- c.pos + 1
           | 't' -> Buffer.add_char b '\t'; c.pos <- c.pos + 1
           | 'u' ->
             (* [pos] is the first of four hex digits. *)
             let hex4 pos =
               if pos + 4 > String.length c.s then
                 fail pos "truncated \\u escape";
               let v = ref 0 in
               for i = pos to pos + 3 do
                 let d =
                   match c.s.[i] with
                   | '0' .. '9' as ch -> Char.code ch - Char.code '0'
                   | 'a' .. 'f' as ch -> Char.code ch - Char.code 'a' + 10
                   | 'A' .. 'F' as ch -> Char.code ch - Char.code 'A' + 10
                   | _ -> fail pos "bad \\u escape"
                 in
                 v := (!v lsl 4) lor d
               done;
               !v
             in
             let u = hex4 (c.pos + 1) in
             c.pos <- c.pos + 5;
             if u >= 0xd800 && u <= 0xdbff then
               (* A high surrogate is only meaningful as the first half
                  of a \uXXXX\uXXXX pair; anything else is malformed. *)
               if
                 c.pos + 1 < String.length c.s
                 && c.s.[c.pos] = '\\'
                 && c.s.[c.pos + 1] = 'u'
               then begin
                 let lo = hex4 (c.pos + 2) in
                 if lo >= 0xdc00 && lo <= 0xdfff then begin
                   c.pos <- c.pos + 6;
                   add_utf8 b
                     (0x10000 + ((u - 0xd800) lsl 10) + (lo - 0xdc00))
                 end
                 else fail (c.pos - 6) "unpaired surrogate in \\u escape"
               end
               else fail (c.pos - 6) "unpaired surrogate in \\u escape"
             else if u >= 0xdc00 && u <= 0xdfff then
               fail (c.pos - 6) "unpaired surrogate in \\u escape"
             else add_utf8 b u
           | ch -> fail c.pos (Printf.sprintf "bad escape \\%C" ch));
        go ()
      | ch when Char.code ch < 0x20 -> fail c.pos "control char in string"
      | ch ->
        Buffer.add_char b ch;
        c.pos <- c.pos + 1;
        go ()
  in
  go ();
  Buffer.contents b

let parse_number c =
  let start = c.pos in
  let is_num_char ch =
    match ch with
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while
    c.pos < String.length c.s && is_num_char c.s.[c.pos]
  do
    c.pos <- c.pos + 1
  done;
  let tok = String.sub c.s start (c.pos - start) in
  match float_of_string_opt tok with
  | Some f -> f
  | None -> fail start (Printf.sprintf "bad number %S" tok)

let rec parse_value c =
  skip_ws c;
  match peek c with
  | None -> fail c.pos "unexpected end of input"
  | Some '{' ->
    c.pos <- c.pos + 1;
    skip_ws c;
    if peek c = Some '}' then begin
      c.pos <- c.pos + 1;
      Obj []
    end
    else
      let rec fields acc =
        skip_ws c;
        let key = parse_string c in
        skip_ws c;
        expect c ':';
        let v = parse_value c in
        skip_ws c;
        match peek c with
        | Some ',' ->
          c.pos <- c.pos + 1;
          fields ((key, v) :: acc)
        | Some '}' ->
          c.pos <- c.pos + 1;
          Obj (List.rev ((key, v) :: acc))
        | _ -> fail c.pos "expected ',' or '}'"
      in
      fields []
  | Some '[' ->
    c.pos <- c.pos + 1;
    skip_ws c;
    if peek c = Some ']' then begin
      c.pos <- c.pos + 1;
      Arr []
    end
    else
      let rec items acc =
        let v = parse_value c in
        skip_ws c;
        match peek c with
        | Some ',' ->
          c.pos <- c.pos + 1;
          items (v :: acc)
        | Some ']' ->
          c.pos <- c.pos + 1;
          Arr (List.rev (v :: acc))
        | _ -> fail c.pos "expected ',' or ']'"
      in
      items []
  | Some '"' -> Str (parse_string c)
  | Some 't' -> literal c "true" (Bool true)
  | Some 'f' -> literal c "false" (Bool false)
  | Some 'n' -> literal c "null" Null
  | Some ('-' | '0' .. '9') -> Num (parse_number c)
  | Some ch -> fail c.pos (Printf.sprintf "unexpected %C" ch)

let parse s =
  let c = { s; pos = 0 } in
  let v = parse_value c in
  skip_ws c;
  if c.pos <> String.length s then fail c.pos "trailing garbage";
  v

let parse_file file =
  let ic = open_in_bin file in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> parse (really_input_string ic (in_channel_length ic)))

(* ---------- printer ---------- *)

let escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun ch ->
      match ch with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | ch when Char.code ch < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code ch))
      | ch -> Buffer.add_char b ch)
    s;
  Buffer.contents b

let add_num b f =
  if not (Float.is_finite f) then
    (* nan/infinity have no JSON representation; degrade to null rather
       than emit a token no parser (including ours) accepts *)
    Buffer.add_string b "null"
  else if Float.is_integer f && Float.abs f < 1e15 then
    Printf.bprintf b "%.0f" f
  else Printf.bprintf b "%.17g" f

let to_string v =
  let b = Buffer.create 256 in
  let rec go = function
    | Null -> Buffer.add_string b "null"
    | Bool x -> Buffer.add_string b (string_of_bool x)
    | Num f -> add_num b f
    | Str s -> Printf.bprintf b "\"%s\"" (escape s)
    | Arr items ->
      Buffer.add_char b '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char b ',';
          go v)
        items;
      Buffer.add_char b ']'
    | Obj fields ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          Printf.bprintf b "\"%s\":" (escape k);
          go v)
        fields;
      Buffer.add_char b '}'
  in
  go v;
  Buffer.contents b

(* ---------- accessors ---------- *)

let member key = function Obj fields -> List.assoc_opt key fields | _ -> None
let to_float = function Num f -> Some f | _ -> None

let to_int = function
  | Num f when Float.is_integer f -> Some (int_of_float f)
  | _ -> None

let to_str = function Str s -> Some s | _ -> None
let to_list = function Arr items -> Some items | _ -> None
let to_assoc = function Obj fields -> Some fields | _ -> None

(* ---------- ndjson ---------- *)

let to_line v = to_string v ^ "\n"

module Ndjson = struct
  (* A growing byte buffer with a consumption cursor [start] and a scan
     cursor [scan]: bytes in [start, scan) hold no newline, so each byte
     is searched once however its line arrives. Consumed bytes are
     dropped lazily: when the cursor passes half of a large buffer the
     live tail is shifted down, so a long-running stream stays
     O(longest line), not O(stream). A line that grows past [max_line]
     is reported once, then dropped as it arrives up to its newline
     ([skipping]). *)
  type reader = {
    buf : Buffer.t;
    mutable start : int;
    mutable scan : int;
    max_line : int;
    mutable skipping : bool;
  }

  type item = Line of string | Too_long

  let reader ?(max_line = max_int) () =
    { buf = Buffer.create 256; start = 0; scan = 0; max_line; skipping = false }

  let feed r ?(pos = 0) ?len s =
    let len = Option.value len ~default:(String.length s - pos) in
    if pos < 0 || len < 0 || pos + len > String.length s then
      invalid_arg "Ndjson.feed";
    Buffer.add_substring r.buf s pos len

  let compact r =
    if r.start > 4096 && r.start * 2 > Buffer.length r.buf then begin
      let tail = Buffer.sub r.buf r.start (Buffer.length r.buf - r.start) in
      Buffer.clear r.buf;
      Buffer.add_string r.buf tail;
      r.scan <- r.scan - r.start;
      r.start <- 0
    end

  let is_blank line =
    String.for_all
      (fun ch -> ch = ' ' || ch = '\t' || ch = '\r' || ch = '\n')
      line

  let rec next_line r =
    let len = Buffer.length r.buf in
    while r.scan < len && Buffer.nth r.buf r.scan <> '\n' do
      r.scan <- r.scan + 1
    done;
    let from = r.start and over = r.scan - r.start > r.max_line in
    if r.scan = len && not (over || r.skipping) then None
    else if r.scan = len then begin
      (* an over-long partial line: drop what arrived, report it once *)
      let first = not r.skipping in
      Buffer.clear r.buf;
      r.start <- 0;
      r.scan <- 0;
      r.skipping <- true;
      if first then Some Too_long else None
    end
    else begin
      let skipped = r.skipping in
      r.start <- r.scan + 1;
      r.scan <- r.start;
      r.skipping <- false;
      if skipped then (compact r; next_line r)
      else if over then (compact r; Some Too_long)
      else
        let line = Buffer.sub r.buf from (r.start - 1 - from) in
        compact r;
        if is_blank line then next_line r else Some (Line line)
    end

  let next r =
    match next_line r with
    | None -> None
    | Some (Line line) -> Some (parse line)
    | Some Too_long ->
      raise (Parse_error (Printf.sprintf "line exceeds %d bytes" r.max_line))

  let pending r = Buffer.sub r.buf r.start (Buffer.length r.buf - r.start)
end

let read_ndjson s =
  let r = Ndjson.reader () in
  Ndjson.feed r s;
  if String.length s > 0 && s.[String.length s - 1] <> '\n' then
    (* terminate a final unterminated line so it is not silently lost *)
    Ndjson.feed r "\n";
  let rec go acc =
    match Ndjson.next r with None -> List.rev acc | Some v -> go (v :: acc)
  in
  go []
