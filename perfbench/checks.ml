(* Output checks.  Every check is counted; a failed one is remembered with
   its reason, counts in failed_frac and makes the run incorrect. *)

let made = ref 0
let failures = ref []

let check what ok =
  incr made;
  if not ok then begin
    failures := what :: !failures;
    Printf.eprintf "CHECK FAILED: %s\n%!" what
  end

let failed () = List.length !failures

(* The repository's golden-CSV comparator, built next to the harness. *)
let numdiff_exe = Filename.concat "_build" (Filename.concat "default" "test/numdiff.exe")

(* True when [actual_path] matches [golden_path] under numdiff at rtol
   1e-4: lines one to one, numeric fields within 1e-6 + 1e-4 * |golden|,
   other fields exactly.  numdiff prints each mismatch on stderr. *)
let numdiff ~golden_path actual_path =
  Sys.command
    (Filename.quote_command numdiff_exe
       [ "--rtol"; "1e-4"; "--atol"; "1e-6"; golden_path; actual_path ])
  = 0

(* Compare each output against the committed golden of the same name, when
   one exists; [dir] holds the copies handed to numdiff.  Returns the names
   compared. *)
let against_goldens ~golden_dir ~dir outputs =
  List.filter_map
    (fun (name, csv) ->
      let golden_path = Filename.concat golden_dir (name ^ ".csv") in
      if not (Sys.file_exists golden_path) then None
      else begin
        let actual_path = Filename.concat dir (name ^ ".csv") in
        Out_channel.with_open_bin actual_path (fun oc ->
            Out_channel.output_string oc csv);
        check (name ^ " matches its golden at rtol 1e-4")
          (numdiff ~golden_path actual_path);
        Some name
      end)
    outputs
