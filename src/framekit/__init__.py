"""framekit: parse text into graphs of interlinked semantic frames.

The toolkit covers the full pipeline: a frame store with a text
notation, document and synthetic-corpus utilities, a transition system
with an attention buffer, an oracle that converts annotations into
canonical action sequences, a small neural action predictor, and
graph-alignment evaluation.
"""

from .corpus import generate_corpus
from .document import (Document, Mention, SchemaError, Token, doc_from_frame,
                       frame_graph, print_document, tokenize)
from .evaluation import (EvalReport, MetricCounts, TokenMismatchError, align,
                         evaluate, evaluate_corpus)
from .notation import (NotationError, ParseResult, parse_notation,
                       parse_or_raise, print_notation)
from .oracle import (UnrepresentableDocumentError, action_table, generate, replay,
                     roundtrip_check)
from .store import (DanglingHandleError, DuplicateIdError, ForeignHandleError,
                    Handle, Slot, Store, StoreError, Value)
from .transitions import (Action, InvalidActionError, ParserState, SymbolName,
                          parse_action, run_sequence, sequence_from_text,
                          sequence_to_text)

__version__ = "0.1.0"
