open Rgs_sequence

let run = Support_set.grow

let full_of_event idx e =
  List.concat
    (Array.to_list
       (Inverted_index.map_runs idx e (fun i positions ->
            List.map
              (fun p -> { Instance.fseq = i; landmark = [| p |] })
              (Array.to_list positions))))

(* Same control flow as Support_set.grow, on full landmarks. The input list
   is grouped by sequence in right-shift order, so a plain left-to-right scan
   with per-sequence [last_position] state implements lines 1-7 of
   Algorithm 2. The lowest bound [max last_position last] is nondecreasing
   within a sequence run, so one reseatable monotone cursor serves the whole
   pass — same fast path as the compressed grow. *)
let run_full idx insts e =
  Metrics.hit Metrics.full_insgrow_calls;
  match insts with
  | [] -> []
  | first :: _ ->
    let out = ref [] in
    let current_seq = ref first.Instance.fseq in
    let last_position = ref 0 in
    let dead = ref false in
    let c = Inverted_index.cursor idx ~seq:!current_seq e in
    List.iter
      (fun (f : Instance.full) ->
        if f.Instance.fseq <> !current_seq then begin
          current_seq := f.Instance.fseq;
          last_position := 0;
          dead := false;
          Inverted_index.reseat c ~seq:!current_seq
        end;
        if not !dead then begin
          let n = Array.length f.Instance.landmark in
          let last = f.Instance.landmark.(n - 1) in
          let lj =
            Inverted_index.seek_pos c ~lowest:(max !last_position last)
          in
          if lj < 0 then dead := true
          else begin
            last_position := lj;
            let landmark = Array.make (n + 1) lj in
            Array.blit f.Instance.landmark 0 landmark 0 n;
            out := { f with Instance.landmark } :: !out
          end
        end)
      insts;
    Inverted_index.cursor_finish c;
    List.rev !out
