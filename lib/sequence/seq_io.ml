exception Parse_error of { line : int; msg : string }

(* Non-blank, non-comment lines with their 1-based line numbers in the
   original string. *)
let numbered_lines s =
  String.split_on_char '\n' s
  |> List.mapi (fun i l -> (i + 1, String.trim l))
  |> List.filter (fun (_, l) -> l <> "" && l.[0] <> '#')

let lines_of_string s = List.map snd (numbered_lines s)

let tokens_of_line l =
  String.split_on_char ' ' l
  |> List.concat_map (String.split_on_char '\t')
  |> List.filter (fun t -> t <> "")

let parse_tokens ?codec s =
  let codec = match codec with Some c -> c | None -> Codec.create () in
  let seq_of_line l =
    Sequence.of_list (List.map (Codec.intern codec) (tokens_of_line l))
  in
  (Seqdb.of_sequences (List.map seq_of_line (lines_of_string s)), codec)

let parse_chars_report ?(strict = true) s =
  let seqs = ref [] in
  let skipped = ref 0 in
  List.iter
    (fun (line, l) ->
      match Sequence.of_string l with
      | seq -> seqs := seq :: !seqs
      | exception Invalid_argument msg ->
        if strict then raise (Parse_error { line; msg })
        else begin
          Metrics.hit Metrics.parse_errors_skipped;
          incr skipped
        end)
    (numbered_lines s);
  (Seqdb.of_sequences (List.rev !seqs), !skipped)

let parse_chars ?strict s = fst (parse_chars_report ?strict s)

(* A sequence may span lines (the token stream is what matters), so the
   running event accumulator survives line boundaries; [current_line]
   remembers the last line that fed it, for error attribution. In
   non-strict mode a malformed line is dropped wholesale — including any
   half-built sequence it was extending — and counted. *)
exception Skip_line

let parse_spmf_report ?(strict = true) s =
  let seqs = ref [] in
  let skipped = ref 0 in
  let current = ref [] in
  let current_line = ref 0 in
  let error line msg =
    if strict then raise (Parse_error { line; msg })
    else begin
      Metrics.hit Metrics.parse_errors_skipped;
      incr skipped;
      current := [];
      raise Skip_line
    end
  in
  List.iter
    (fun (line, l) ->
      try
        List.iter
          (fun t ->
            match int_of_string_opt t with
            | None -> error line (Printf.sprintf "bad token %S" t)
            | Some -2 ->
              seqs := Sequence.of_list (List.rev !current) :: !seqs;
              current := []
            | Some -1 -> ()
            | Some e when e >= 0 ->
              current := e :: !current;
              current_line := line
            | Some e -> error line (Printf.sprintf "bad event %d" e))
          (tokens_of_line l)
      with Skip_line -> ())
    (numbered_lines s);
  if !current <> [] then
    if strict then
      raise
        (Parse_error
           { line = !current_line; msg = "trailing events without -2 terminator" })
    else begin
      Metrics.hit Metrics.parse_errors_skipped;
      incr skipped
    end;
  (Seqdb.of_sequences (List.rev !seqs), !skipped)

let parse_spmf ?strict s = fst (parse_spmf_report ?strict s)

type format = Tokens | Chars | Spmf

let parse format text =
  match format with
  | Tokens ->
    let db, codec = parse_tokens text in
    (db, Some codec)
  | Chars -> (parse_chars text, None)
  | Spmf -> (parse_spmf text, None)

let print_tokens codec db =
  let buf = Buffer.create 1024 in
  Seqdb.iter
    (fun _ s ->
      Sequence.iteri
        (fun pos e ->
          if pos > 1 then Buffer.add_char buf ' ';
          Buffer.add_string buf (Codec.name codec e))
        s;
      Buffer.add_char buf '\n')
    db;
  Buffer.contents buf

let print_spmf db =
  let buf = Buffer.create 1024 in
  Seqdb.iter
    (fun _ s ->
      Sequence.iteri
        (fun pos e ->
          if pos > 1 then Buffer.add_string buf "-1 ";
          Buffer.add_string buf (string_of_int e);
          Buffer.add_char buf ' ')
        s;
      Buffer.add_string buf "-2\n")
    db;
  Buffer.contents buf

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc contents)

let load_tokens ?codec path = parse_tokens ?codec (read_file path)
let load_spmf ?strict path = parse_spmf ?strict (read_file path)
let save_tokens codec db path = write_file path (print_tokens codec db)
let save_spmf db path = write_file path (print_spmf db)
